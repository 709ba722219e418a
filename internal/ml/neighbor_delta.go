package ml

import (
	"fmt"
	"sort"

	"nde/internal/linalg"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
)

// This file implements incremental maintenance of a NeighborIndex:
// RemoveRows and AppendRows return a NEW index over the mutated training
// set that reuses the parent's cached distance geometry instead of
// recomputing it. The receiver is never mutated, so concurrent readers
// (what-if variant workers, serving requests) can derive children from a
// shared base freely.
//
// Representation: a derived index carries a deltaGeom mapping its logical
// training rows onto the ROOT index's physical space — the root's column
// ids plus "extra" slots for appended rows. Removals are tombstones in
// that map; appends pay one query×block distance kernel (the only fresh
// distance work a delta ever does). Chains of derivations stay flattened
// against the same root; when tombstones or extras pile past
// 1/compactDeadFrac of the physical space, derivation folds the child into
// a fresh self-contained root by gathering (never recomputing) distances.
//
// Determinism contract (DESIGN §11): every observable of a derived index —
// D2, Order, TopK, PredictBatch — is Float64bits-identical to a freshly
// built index over the same training rows. This holds because the Gram
// kernel computes each (query, row) distance independently of the rest of
// the matrix, removal preserves the relative order of survivors, and
// appended rows take logical ids larger than every existing row, so merge
// tie-breaks coincide with the rebuild's (distance, index) comparator.
const (
	// compactDeadFrac: compact when dead slots exceed phys/compactDeadFrac.
	compactDeadFrac = 4
	// compactExtraFrac: compact when extras exceed nBase/compactExtraFrac.
	compactExtraFrac = 4
)

// deltaGeom maps a derived index's logical training rows onto its root's
// physical space. Physical ids < nBase are root columns; id nBase+s is
// appended extra slot s. physOf/logOf are private to one index; extraD2
// and extraOrder are immutable once built and shared down chains.
type deltaGeom struct {
	base   *NeighborIndex // the root: never itself derived (delta == nil)
	physOf []int          // logical -> physical, ascending
	logOf  []int          // physical -> logical, -1 = tombstone
	nExtra int            // appended slots (alive + dead)
	dead   int            // tombstoned physical slots

	extraD2    *linalg.Matrix // queries × nExtra block distances (nil when nExtra == 0)
	extraOrder []int          // flat queries × nExtra argsort of slots by (d, slot)
}

func (g *deltaGeom) nBase() int { return g.base.Train.Len() }

// childGeom snapshots the receiver's geometry as a fresh deltaGeom a
// derivation can mutate, treating a root as the identity mapping.
func (ix *NeighborIndex) childGeom() *deltaGeom {
	if g := ix.delta; g != nil {
		return &deltaGeom{
			base:       g.base,
			physOf:     append([]int(nil), g.physOf...),
			logOf:      append([]int(nil), g.logOf...),
			nExtra:     g.nExtra,
			dead:       g.dead,
			extraD2:    g.extraD2,
			extraOrder: g.extraOrder,
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
// receiver is unchanged and remains usable. The child reuses the cached
// distance geometry: no distances are recomputed and no full argsort runs;
// per-query top-k structures are repaired in O(queries·k) plus O(n) for
// each query whose top-k actually intersects the removed rows. An empty
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
	removedPhys := make(map[int]bool, len(uniq))
	for _, r := range uniq {
		p := g.physOf[r]
		removedPhys[p] = true
		g.logOf[p] = -1
	}
	g.dead += len(uniq)
	g.renumber()

	keep := make([]int, 0, n-len(uniq))
	next := 0
	for i := 0; i < n; i++ {
		if next < len(uniq) && uniq[next] == i {
			next++
			continue
		}
		keep = append(keep, i)
	}
	return ix.deriveChild(ix.Train.Subset(keep), g, removedPhys, 0, 0), nil
}

// AppendRows returns a new index over the training set extended by the
// given feature rows and labels. The receiver is unchanged. The only fresh
// distance work is the queries×block kernel for the appended rows; the
// existing geometry is reused, and per-query top-k structures are repaired
// in O(queries·k) plus O(n) for each query where an appended row actually
// enters the top k. Appended rows take training indices after all existing
// rows, matching a rebuild over the concatenated dataset bit for bit.
func (ix *NeighborIndex) AppendRows(x *linalg.Matrix, y []int) (*NeighborIndex, error) {
	if x == nil || x.Rows == 0 {
		return nil, nderr.Empty("ml: AppendRows block")
	}
	if x.Cols != ix.Train.Dim() {
		return nil, nderr.Mismatch("ml: AppendRows dims", ix.Train.Dim(), x.Cols)
	}
	if len(y) != x.Rows {
		return nil, fmt.Errorf("ml: %d appended rows vs %d labels: %w", x.Rows, len(y), nderr.ErrShapeMismatch)
	}
	for i, v := range y {
		if v < 0 {
			return nil, fmt.Errorf("ml: negative label %d at appended row %d: %w", v, i, nderr.ErrDegenerateInput)
		}
	}
	if err := x.CheckFinite("AppendRows features"); err != nil {
		return nil, fmt.Errorf("ml: %w", err)
	}

	m := x.Rows
	nq := ix.Queries.Len()
	g := ix.childGeom()
	nBase := g.nBase()

	blockD2 := linalg.PairwiseSquaredDistances(ix.Queries.X, x, ix.Workers)
	blockOrder := make([]int, nq*m)
	scratch := make([]argsortScratch, par.Workers(ix.Workers, nq))
	par.For("ml.neighbor_append_argsort", ix.Workers, nq, func(w, q int) {
		argsortInto(blockD2.Row(q), blockOrder[q*m:(q+1)*m], &scratch[w])
	})

	newLo := nBase + g.nExtra
	if g.nExtra == 0 {
		g.extraD2, g.extraOrder = blockD2, blockOrder
	} else {
		prev := g.nExtra
		g.extraD2 = linalg.HConcat(g.extraD2, blockD2)
		merged := make([]int, nq*(prev+m))
		par.For("ml.neighbor_append_merge", ix.Workers, nq, func(_, q int) {
			mergeOrderRows(
				merged[q*(prev+m):(q+1)*(prev+m)],
				g.extraOrder[q*prev:(q+1)*prev],
				blockOrder[q*m:(q+1)*m],
				g.extraD2.Row(q), prev)
		})
		g.extraOrder = merged
	}
	for s := 0; s < m; s++ {
		g.logOf = append(g.logOf, len(g.physOf))
		g.physOf = append(g.physOf, nBase+g.nExtra+s)
	}
	g.nExtra += m

	return ix.deriveChild(appendDataset(ix.Train, x, y), g, nil, newLo, newLo+m), nil
}

// deriveChild assembles the derived index: attaches the geometry, repairs
// the top-k cache from the receiver's (when it has one), and compacts into
// a self-contained root when tombstones or extras have piled up.
func (ix *NeighborIndex) deriveChild(train *Dataset, g *deltaGeom, removedPhys map[int]bool, newLo, newHi int) *NeighborIndex {
	child := &NeighborIndex{Train: train, Queries: ix.Queries, Workers: ix.Workers, Search: ix.Search, delta: g}
	deriveTopK(child, ix, g, removedPhys, newLo, newHi)
	nBase := g.nBase()
	if g.dead*compactDeadFrac > nBase+g.nExtra || g.nExtra*compactExtraFrac > nBase {
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

// compactInto folds the delta into child as a self-contained root: the
// distance matrix is gathered (element copies, never recomputed) and, when
// the base's full argsort was already materialized, neighbor orders are
// rebuilt by the merge walk with no sorting. child.delta is cleared, so
// future derivations chain against this new root.
func (g *deltaGeom) compactInto(child *NeighborIndex) {
	q := child.Queries.Len()
	n := len(g.physOf)
	d2 := g.materializeD2(q, child.Workers)
	child.d2Once.Do(func() { child.d2 = d2 })
	if g.base.ordersReady.Load() {
		orders := make([]int, q*n)
		par.For("ml.neighbor_compact_orders", child.Workers, q, func(_, qi int) {
			g.walkInto(qi, orders[qi*n:(qi+1)*n])
		})
		child.ordersOnce.Do(func() { child.orders = orders })
		child.ordersReady.Store(true)
	}
	child.delta = nil
}

// materializeD2 gathers the derived index's queries×rows distance matrix
// from the root's matrix and the extra blocks. Pure element copies: the
// result is bit-identical to running the kernel over the derived Train.
func (g *deltaGeom) materializeD2(q, workers int) *linalg.Matrix {
	baseD2 := g.base.D2()
	if g.nExtra == 0 {
		return baseD2.SelectColumns(g.physOf)
	}
	nBase := g.nBase()
	out := linalg.NewMatrix(q, len(g.physOf))
	par.For("ml.neighbor_delta_d2", workers, q, func(_, r int) {
		src, ex, dst := baseD2.Row(r), g.extraD2.Row(r), out.Row(r)
		for o, p := range g.physOf {
			if p < nBase {
				dst[o] = src[p]
			} else {
				dst[o] = ex[p-nBase]
			}
		}
	})
	return out
}

// walkInto writes query qi's full neighbor order (logical ids, ascending
// (distance, id)) into out by merging the root's cached argsort with the
// extra slots' argsort, skipping tombstones — O(n) per query, no sorting.
// Ties between a base row and an extra go to the base row: its logical id
// is always smaller, matching the rebuild comparator.
func (g *deltaGeom) walkInto(qi int, out []int) {
	baseOrd := g.base.Order(qi)
	o := 0
	if g.nExtra == 0 {
		for _, p := range baseOrd {
			if l := g.logOf[p]; l >= 0 {
				out[o] = l
				o++
			}
		}
		return
	}
	nBase := g.nBase()
	baseD2 := g.base.D2().Row(qi)
	exOrd := g.extraOrder[qi*g.nExtra : (qi+1)*g.nExtra]
	exD2 := g.extraD2.Row(qi)
	bi, ei := 0, 0
	for {
		for bi < len(baseOrd) && g.logOf[baseOrd[bi]] < 0 {
			bi++
		}
		for ei < len(exOrd) && g.logOf[nBase+exOrd[ei]] < 0 {
			ei++
		}
		switch {
		case bi >= len(baseOrd) && ei >= len(exOrd):
			return
		case ei >= len(exOrd), bi < len(baseOrd) && baseD2[baseOrd[bi]] <= exD2[exOrd[ei]]:
			out[o] = g.logOf[baseOrd[bi]]
			o++
			bi++
		default:
			out[o] = g.logOf[nBase+exOrd[ei]]
			o++
			ei++
		}
	}
}

// reselectInto recomputes query qi's exact top-k from scratch against the
// cached geometry: O(n) gather + quickselect, no distance recomputation.
// pairs must have length ≥ the derived training size, ids length kk.
// Returns the k-th (largest kept) distance. Building candidates in
// physical order yields pairs in ascending logical id with the same
// distance bits as a rebuilt matrix row, so the selection is bit-identical
// to the rebuild's exactTopKInto.
func (g *deltaGeom) reselectInto(qi, kk int, pairs []distIdx, ids []int) float64 {
	nBase := g.nBase()
	bd := g.base.D2().Row(qi)
	m := 0
	for p := 0; p < nBase; p++ {
		if l := g.logOf[p]; l >= 0 {
			pairs[m] = distIdx{d: bd[p], i: l}
			m++
		}
	}
	if g.nExtra > 0 {
		ed := g.extraD2.Row(qi)
		for s := 0; s < g.nExtra; s++ {
			if l := g.logOf[nBase+s]; l >= 0 {
				pairs[m] = distIdx{d: ed[s], i: l}
				m++
			}
		}
	}
	sel := pairs[:m]
	selectK(sel, kk)
	top := sel[:kk]
	sort.Sort(byDistIdx(top))
	for i, p := range top {
		ids[i] = p.i
	}
	return top[kk-1].d
}

// deriveTopK repairs the parent's cached top-k lists for the child: a
// query inherits its list (remapped to child ids) when none of its entries
// were removed and no appended row beats its k-th distance; only the
// remaining queries re-select. With no cache on the parent the child's
// builds lazily on first use instead.
func deriveTopK(child, parent *NeighborIndex, g *deltaGeom, removedPhys map[int]bool, newLo, newHi int) {
	parent.topk.mu.Lock()
	kk, pids, pkth := parent.topk.k, parent.topk.ids, parent.topk.kth
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
	nBase := g.nBase()
	ids := make([]int, nq*kk)
	kth := make([]float64, nq)
	var pairs []distIdx
	reselected := 0
	for q := 0; q < nq; q++ {
		src := pids[q*kk : (q+1)*kk]
		dst := ids[q*kk : (q+1)*kk]
		ok := true
		for i, l := range src {
			p := l
			if pPhys != nil {
				p = pPhys[l]
			}
			if removedPhys[p] {
				ok = false
				break
			}
			dst[i] = g.logOf[p]
		}
		if ok && newHi > newLo {
			ed := g.extraD2.Row(q)
			for s := newLo; s < newHi; s++ {
				// strict: an appended row tying the k-th distance loses to
				// the incumbent's smaller id, exactly as in a rebuild
				if ed[s-nBase] < pkth[q] {
					ok = false
					break
				}
			}
		}
		if ok {
			kth[q] = pkth[q]
			continue
		}
		if pairs == nil {
			pairs = make([]distIdx, n)
		}
		kth[q] = g.reselectInto(q, kk, pairs, dst)
		reselected++
	}
	child.topk.k, child.topk.ids, child.topk.kth = kk, ids, kth
	if obs.Enabled() {
		obs.Count("neighbor_delta_topk_inherited_total", int64(nq-reselected))
		obs.Count("neighbor_delta_topk_reselected_total", int64(reselected))
	}
}

// mergeOrderRows merges one query's old extra-slot order with a new
// block's order (block-local slots offset by bOff) under the (distance,
// slot) total order. Old slots always have smaller ids than new ones, so
// distance ties keep the old slot first — the rebuild tie-break.
func mergeOrderRows(dst, aOrd, bOrd []int, d []float64, bOff int) {
	i, j, o := 0, 0, 0
	for i < len(aOrd) && j < len(bOrd) {
		as, bs := aOrd[i], bOrd[j]+bOff
		if d[as] < d[bs] || (d[as] == d[bs] && as < bs) {
			dst[o] = as
			i++
		} else {
			dst[o] = bs
			j++
		}
		o++
	}
	for ; i < len(aOrd); i++ {
		dst[o] = aOrd[i]
		o++
	}
	for ; j < len(bOrd); j++ {
		dst[o] = bOrd[j] + bOff
		o++
	}
}

// appendDataset concatenates a dataset with a block of rows. Appended rows
// get empty group attributes when the base carries groups.
func appendDataset(d *Dataset, x *linalg.Matrix, y []int) *Dataset {
	n, m, dim := d.Len(), x.Rows, d.Dim()
	nx := linalg.NewMatrix(n+m, dim)
	copy(nx.Data[:n*dim], d.X.Data)
	copy(nx.Data[n*dim:], x.Data)
	ny := make([]int, 0, n+m)
	ny = append(append(ny, d.Y...), y...)
	var groups []string
	if len(d.Groups) > 0 {
		groups = make([]string, n+m)
		copy(groups, d.Groups)
	}
	return &Dataset{X: nx, Y: ny, Groups: groups}
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

// Derived reports whether the index is a delta child still carrying its
// root's geometry (false after compaction folds it into a new root).
func (ix *NeighborIndex) Derived() bool { return ix.delta != nil }

// OrderInto is Order for callers that read each query's order once: it
// returns the cached row when the order table exists, and otherwise, on
// a derived index, walks the root's order into buf (length Train.Len())
// and returns buf, so one pass over the queries never builds the q×n
// table. A root without a table builds it, as Order does. The result
// MUST NOT be mutated.
func (ix *NeighborIndex) OrderInto(qi int, buf []int) []int {
	if g := ix.delta; g != nil && !ix.ordersReady.Load() {
		g.walkInto(qi, buf)
		return buf
	}
	return ix.Order(qi)
}
