package ml

import (
	"fmt"
	"sort"

	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
)

// This file implements incremental maintenance of a NeighborIndex:
// RemoveRows returns a NEW index over the reduced training set that
// reuses the parent's neighbor order instead of recomputing it. The
// receiver is never mutated, so concurrent readers (what-if variant
// workers, serving requests) can derive children from a shared base
// freely.
//
// Representation: a derived index carries a deltaGeom mapping its logical
// training rows onto the ROOT index's columns. Removals are tombstones in
// that map; a delta never computes a distance. Its Train holds only the
// survivors' labels: its features and groups are the root's rows named
// by physOf, which TrainSet gathers for the few callers that need them,
// so a derivation copies no feature matrix. Chains of derivations stay
// flattened against the same root; when tombstones pile past
// 1/compactDeadFrac of the root's columns, derivation folds the child into
// a fresh self-contained root by walking (never sorting) the root's
// order table and gathering its rows once.
//
// Determinism contract (DESIGN §11): every observable of a derived index —
// D2, Order, TopK, PredictBatch — is Float64bits-identical to a freshly
// built index over the same training rows. This holds because the Gram
// kernel computes each (query, row) distance independently of the rest of
// the matrix, and removal preserves the relative order of survivors, so a
// survivor's logical id orders it against every other survivor exactly as
// its root column did, and the root's (distance, index) order restricted
// to the survivors is the rebuild's.

// compactDeadFrac: compact when dead columns exceed nBase/compactDeadFrac.
const compactDeadFrac = 4

// deltaGeom maps a derived index's logical training rows onto its root's
// columns (physical ids). physOf/logOf are private to one index.
type deltaGeom struct {
	base   *NeighborIndex // the root: never itself derived (delta == nil)
	physOf []int          // logical -> physical, ascending
	logOf  []int          // physical -> logical, -1 = tombstone
	dead   int            // tombstoned physical columns
}

func (g *deltaGeom) nBase() int { return g.base.Train.Len() }

// childGeom snapshots the receiver's geometry as a fresh deltaGeom a
// derivation can mutate, treating a root as the identity mapping.
func (ix *NeighborIndex) childGeom() *deltaGeom {
	if g := ix.delta; g != nil {
		return &deltaGeom{
			base:   g.base,
			physOf: append([]int(nil), g.physOf...),
			logOf:  append([]int(nil), g.logOf...),
			dead:   g.dead,
		}
	}
	n := ix.Train.Len()
	physOf := make([]int, n)
	logOf := make([]int, n)
	for i := range physOf {
		physOf[i] = i
		logOf[i] = i
	}
	return &deltaGeom{base: ix, physOf: physOf, logOf: logOf}
}

// renumber rebuilds physOf and the logical numbering after tombstoning:
// surviving physical slots keep their relative order, so logical ids stay
// ascending in physical id — exactly the row order of the derived Train.
func (g *deltaGeom) renumber() {
	g.physOf = g.physOf[:0]
	for p, l := range g.logOf {
		if l >= 0 {
			g.logOf[p] = len(g.physOf)
			g.physOf = append(g.physOf, p)
		}
	}
}

// RemoveRows returns a new index over the training set with the given rows
// (indices into the receiver's Train, duplicates tolerated) removed. The
// receiver is unchanged and remains usable. The child reuses the root's
// order table: no distances are recomputed and no argsort runs beyond
// the root's own, which a derivation builds if it needs it first. Its
// Train carries the survivors' labels, and no features or groups
// (TrainSet gathers them), so no feature row or group is copied, except
// by the derivation that compacts. Per-query top-k lists are repaired in
// O(queries·k), plus a walk of the root's order up to the k-th survivor
// for each query whose top-k intersects the removed rows. An empty
// removal returns the receiver itself. Removing every row is an error.
func (ix *NeighborIndex) RemoveRows(rows []int) (*NeighborIndex, error) {
	n := ix.Train.Len()
	if len(rows) == 0 {
		return ix, nil
	}
	for _, r := range rows {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("ml: RemoveRows row %d outside [0,%d): %w", r, n, nderr.ErrDegenerateInput)
		}
	}
	uniq := append([]int(nil), rows...)
	sort.Ints(uniq)
	uniq = dedupSorted(uniq)
	if len(uniq) == n {
		return nil, fmt.Errorf("ml: RemoveRows would empty the training set: %w", nderr.ErrEmptyInput)
	}
	g := ix.childGeom()
	for _, r := range uniq {
		g.logOf[g.physOf[r]] = -1
	}
	g.dead += len(uniq)
	g.renumber()

	y := make([]int, 0, n-len(uniq))
	next := 0
	for i := 0; i < n; i++ {
		if next < len(uniq) && uniq[next] == i {
			next++
			continue
		}
		y = append(y, ix.Train.Y[i])
	}
	return ix.deriveChild(&Dataset{Y: y}, g), nil
}

// deriveChild assembles the derived index: attaches the geometry, repairs
// the top-k cache from the receiver's (when it has one), and compacts into
// a self-contained root when tombstones have piled up.
func (ix *NeighborIndex) deriveChild(train *Dataset, g *deltaGeom) *NeighborIndex {
	child := &NeighborIndex{Train: train, Queries: ix.Queries, Workers: ix.Workers, delta: g}
	deriveTopK(child, ix, g)
	if g.dead*compactDeadFrac > g.nBase() {
		g.compactInto(child)
	}
	if obs.Enabled() {
		obs.Inc("neighbor_delta_derived_total")
		if child.delta == nil {
			obs.Inc("neighbor_delta_compactions_total")
		}
	}
	return child
}

// compactInto folds the delta into child as a self-contained root: its
// neighbor orders are the root's, walked past the tombstones with no
// sorting and no distance, and its Train is the root's rows at physOf,
// gathered once. Those labels are child's own: a derived Train.Y is its
// root's at physOf, by induction over the chain. child.delta is
// cleared, so future derivations chain against this new root.
func (g *deltaGeom) compactInto(child *NeighborIndex) {
	q := child.Queries.Len()
	n := len(g.physOf)
	orders := make([]int32, q*n)
	par.For("ml.neighbor_compact_orders", child.Workers, q, func(_, qi int) {
		g.walkInto(qi, orders[qi*n:(qi+1)*n])
	})
	child.ordersOnce.Do(func() { child.orders = orders })
	child.ordersReady.Store(true)
	child.Train = g.base.Train.Subset(g.physOf)
	child.delta = nil
}

// walkInto writes into out query qi's first len(out) alive rows (logical
// ids, ascending (distance, id)) by walking the root's cached order and
// skipping tombstones: the full order when out holds every alive row,
// the top-k when it holds k. O(rank of the last row written), no
// sorting; the first walk builds the root's order table if it has none.
func (g *deltaGeom) walkInto(qi int, out []int32) {
	if len(out) == 0 {
		return
	}
	logOf := g.logOf // a local, so the loop keeps its header in registers
	o := 0
	for _, p := range g.base.Order(qi) {
		if l := logOf[p]; l >= 0 {
			out[o] = int32(l)
			if o++; o == len(out) {
				return
			}
		}
	}
}

// deriveTopK repairs the parent's cached top-k lists for the child: a
// query inherits its list (remapped to child ids) when none of its entries
// were removed; only the remaining queries re-select, by walking the
// root's order to the first kk survivors. A parent's entries are alive in
// the parent, so a tombstone in the child's map marks a row this
// derivation removed. With no cache on the parent the child's builds
// lazily on first use instead.
func deriveTopK(child, parent *NeighborIndex, g *deltaGeom) {
	parent.topk.mu.Lock()
	kk, pids := parent.topk.k, parent.topk.ids
	parent.topk.mu.Unlock()
	n := child.Train.Len()
	if kk <= 0 || pids == nil || kk > n {
		return
	}
	nq := child.Queries.Len()
	var pPhys []int
	if parent.delta != nil {
		pPhys = parent.delta.physOf
	}
	ids := make([]int32, nq*kk)
	reselected := 0
	for q := 0; q < nq; q++ {
		src := pids[q*kk : (q+1)*kk]
		dst := ids[q*kk : (q+1)*kk]
		for i, pl := range src {
			p := int(pl)
			if pPhys != nil {
				p = pPhys[pl]
			}
			l := g.logOf[p]
			if l < 0 {
				g.walkInto(q, dst)
				reselected++
				break
			}
			dst[i] = int32(l)
		}
	}
	child.topk.k, child.topk.ids = kk, ids
	if obs.Enabled() {
		obs.Count("neighbor_delta_topk_inherited_total", int64(nq-reselected))
		obs.Count("neighbor_delta_topk_reselected_total", int64(reselected))
	}
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(a []int) []int {
	out := a[:0]
	for i, v := range a {
		if i == 0 || a[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// Walk returns the index whose order table a caller that reads each
// query's order once should walk, and how its rows map to ix's: a
// derived index without its own table returns its root and physOf, the
// root row of each of its rows, ascending; any other index returns
// itself and nil. The root rows that physOf does not name are
// tombstones, and skipping them in the root's order visits ix's rows in
// ix's own order (DESIGN §11), so such a caller never builds the q×n
// table. physOf MUST NOT be mutated.
func (ix *NeighborIndex) Walk() (root *NeighborIndex, physOf []int) {
	if g := ix.delta; g != nil && !ix.ordersReady.Load() {
		return g.base, g.physOf
	}
	return ix, nil
}

// TrainSet returns the index's full training set: Train itself on a root,
// with no copy; on a derived index, whose Train holds no features, its
// root's rows at physOf, gathered on every call. Datasets are immutable
// once indexed, so the gathered rows are the ones the derivation removed
// from. D2, the cleaning loop's feature check (on a root) and the tests
// read it; no served path gathers.
func (ix *NeighborIndex) TrainSet() *Dataset {
	if g := ix.delta; g != nil {
		return g.base.Train.Subset(g.physOf)
	}
	return ix.Train
}
