package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nde/internal/nderr"
)

// rebuildIndex is the determinism oracle: a fresh index over the derived
// index's own training data, computed from scratch.
func rebuildIndex(t *testing.T, derived *NeighborIndex, workers int) *NeighborIndex {
	t.Helper()
	fresh, err := NewNeighborIndex(derived.TrainSet(), derived.Queries, workers)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// assertIndexBitIdentical checks every observable of the derived index —
// D2, Order, TopK, PredictBatch — against the rebuild oracle, bit for bit.
func assertIndexBitIdentical(t *testing.T, derived, fresh *NeighborIndex, k int) {
	t.Helper()
	dd, fd := derived.D2(), fresh.D2()
	if dd.Rows != fd.Rows || dd.Cols != fd.Cols {
		t.Fatalf("D2 shape %dx%d vs rebuild %dx%d", dd.Rows, dd.Cols, fd.Rows, fd.Cols)
	}
	for i, v := range dd.Data {
		if math.Float64bits(v) != math.Float64bits(fd.Data[i]) {
			t.Fatalf("D2[%d] = %x, rebuild %x", i, math.Float64bits(v), math.Float64bits(fd.Data[i]))
		}
	}
	nq := derived.Queries.Len()
	for q := 0; q < nq; q++ {
		do, fo := derived.Order(q), fresh.Order(q)
		for j := range fo {
			if do[j] != fo[j] {
				t.Fatalf("Order(%d)[%d] = %d, rebuild %d", q, j, do[j], fo[j])
			}
		}
		dt, ft := derived.TopK(q, k), fresh.TopK(q, k)
		for j := range ft {
			if dt[j] != ft[j] {
				t.Fatalf("TopK(%d,%d)[%d] = %d, rebuild %d", q, k, j, dt[j], ft[j])
			}
		}
	}
	dp, fp := derived.PredictBatch(k), fresh.PredictBatch(k)
	for q := range fp {
		if dp[q] != fp[q] {
			t.Fatalf("PredictBatch[%d] = %d, rebuild %d", q, dp[q], fp[q])
		}
	}
}

func TestRemoveRowsBitIdenticalToRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	train := randomNeighborDataset(r, 60, 5, 3)
	queries := randomNeighborDataset(r, 17, 5, 3)
	ix, err := NewNeighborIndex(train, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix.PredictBatch(3) // warm the top-k cache so derivation inherits from it

	for _, rm := range [][]int{
		{0},
		{59},
		{5, 5, 12, 3, 5}, // duplicates tolerated
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, // triggers compaction
	} {
		child, err := ix.RemoveRows(rm)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexBitIdentical(t, child, rebuildIndex(t, child, 1), 3)
	}
}

// Walk on a derived index without an order table hands back its root
// and physOf, and skipping the tombstones in the root's order visits the
// child's rows in the rebuild's Order — all without building the
// child's table. Once the table exists, and on a root, Walk returns the
// index itself.
func TestOrderIntoWalksWithoutTable(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	train := randomNeighborDataset(r, 50, 4, 3)
	queries := randomNeighborDataset(r, 9, 4, 3)
	root, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	child, err := root.RemoveRows([]int{2, 17, 31})
	if err != nil {
		t.Fatal(err)
	}
	if child.delta == nil {
		t.Fatal("fixture compacted; the walk path needs a derived index")
	}
	fresh := rebuildIndex(t, child, 1)
	walked, physOf := child.Walk()
	if walked != root || len(physOf) != child.Train.Len() {
		t.Fatalf("Walk() = (root %v, %d rows), want (true, %d)", walked == root, len(physOf), child.Train.Len())
	}
	rowOf := make([]int32, root.Train.Len())
	for i := range rowOf {
		rowOf[i] = -1
	}
	for i, p := range physOf {
		if i > 0 && physOf[i-1] >= p {
			t.Fatalf("physOf[%d] = %d after %d, want ascending", i, p, physOf[i-1])
		}
		rowOf[p] = int32(i)
	}
	for q := 0; q < queries.Len(); q++ {
		want := fresh.Order(q)
		j := 0
		for _, p := range walked.Order(q) {
			if rowOf[p] < 0 {
				continue
			}
			if rowOf[p] != want[j] {
				t.Fatalf("walk(%d)[%d] = %d, rebuild %d", q, j, rowOf[p], want[j])
			}
			j++
		}
		if j != len(want) {
			t.Fatalf("walk(%d) visited %d rows, want %d", q, j, len(want))
		}
	}
	if child.ordersReady.Load() {
		t.Fatal("walking the root built the derived index's order table")
	}
	child.Order(0)
	for _, ix := range []*NeighborIndex{child, fresh, root} {
		if got, phys := ix.Walk(); got != ix || phys != nil {
			t.Fatal("Walk() on an index with its own order table did not return itself")
		}
	}
	for q := 0; q < queries.Len(); q++ {
		for j, id := range fresh.Order(q) {
			if got := child.Order(q)[j]; got != id {
				t.Fatalf("Order(%d)[%d] = %d, rebuild %d", q, j, got, id)
			}
		}
	}
}

// Property: arbitrary removal chains stay bit-identical to the rebuild
// oracle at every step, across worker counts, through compactions.
func TestDeltaChainPropertyBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r := rand.New(rand.NewSource(100 + int64(workers)))
		for trial := 0; trial < 3; trial++ {
			dim := 3 + r.Intn(3)
			train := randomNeighborDataset(r, 50+r.Intn(30), dim, 3)
			queries := randomNeighborDataset(r, 8+r.Intn(8), dim, 3)
			cur, err := NewNeighborIndex(train, queries, workers)
			if err != nil {
				t.Fatal(err)
			}
			if trial%2 == 0 {
				cur.Order(0) // exercise the walk-collected compaction arm too
			}
			cur.PredictBatch(3)
			sawCompact := false
			for step := 0; step < 8 && cur.Train.Len() > 10; step++ {
				n := cur.Train.Len()
				rm := make([]int, 1+r.Intn(n/4))
				for i := range rm {
					rm[i] = r.Intn(n)
				}
				next, err := cur.RemoveRows(rm)
				if err != nil {
					t.Fatal(err)
				}
				cur = next
				if cur.delta == nil {
					sawCompact = true
				}
				assertIndexBitIdentical(t, cur, rebuildIndex(t, cur, workers), 3)
			}
			if !sawCompact && testing.Verbose() {
				t.Logf("workers=%d trial=%d: chain never compacted", workers, trial)
			}
		}
	}
}

func TestRemoveRowsEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	train := randomNeighborDataset(r, 12, 3, 2)
	queries := randomNeighborDataset(r, 4, 3, 2)
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := ix.RemoveRows(nil); err != nil || same != ix {
		t.Fatalf("empty removal: got (%p, %v), want the receiver", same, err)
	}
	if _, err := ix.RemoveRows([]int{12}); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("out-of-range removal err = %v, want ErrDegenerateInput", err)
	}
	if _, err := ix.RemoveRows([]int{-1}); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("negative removal err = %v, want ErrDegenerateInput", err)
	}
	all := make([]int, 12)
	for i := range all {
		all[i] = i
	}
	if _, err := ix.RemoveRows(all); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("remove-everything err = %v, want ErrEmptyInput", err)
	}
	// duplicates must not double-remove: 12 - 2 distinct = 10
	child, err := ix.RemoveRows([]int{3, 3, 3, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if child.Train.Len() != 10 {
		t.Fatalf("after dup removal train = %d rows, want 10", child.Train.Len())
	}
}

// k <= 0 and k > n clamp in TopK.
func TestTopKClampAndErrorsAcrossModes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	train := randomNeighborDataset(r, 64, 4, 2)
	queries := randomNeighborDataset(r, 6, 4, 2)
	n := train.Len()
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.TopK(0, 0); got != nil {
		t.Errorf("TopK(0,0) = %v, want nil", got)
	}
	if got := ix.TopK(0, -4); got != nil {
		t.Errorf("TopK(0,-4) = %v, want nil", got)
	}
	if got := ix.TopK(0, n+5); len(got) != n {
		t.Errorf("TopK(0,n+5) returned %d ids, want clamped %d", len(got), n)
	}
}

// PredictBatchLabels must vote with the caller's labels, not the index's
// snapshot — the stale-label cache contract.
func TestPredictBatchLabelsOverridesSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	train := randomNeighborDataset(r, 30, 3, 2)
	queries := randomNeighborDataset(r, 9, 3, 2)
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]int, train.Len())
	for i, y := range train.Y {
		flipped[i] = 1 - y
	}
	base, err := ix.PredictBatchLabels(3, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	flip, err := ix.PredictBatchLabels(3, flipped)
	if err != nil {
		t.Fatal(err)
	}
	for q := range base {
		if flip[q] != 1-base[q] {
			t.Fatalf("query %d: flipped labels predicted %d, want %d", q, flip[q], 1-base[q])
		}
	}
	if _, err := ix.PredictBatchLabels(3, flipped[:10]); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Fatalf("short labels err = %v, want ErrShapeMismatch", err)
	}
	if _, err := ix.PredictBatchLabels(3, append([]int{-1}, flipped[1:]...)); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("negative label err = %v, want ErrDegenerateInput", err)
	}

	// PredictSurvivors votes the same caller labels and rejects the same
	// bad ones, plus an alive mask of the wrong length
	alive := make([]bool, train.Len())
	for i := range alive {
		alive[i] = true
	}
	survivors, err := ix.PredictSurvivors(3, flipped, alive)
	if err != nil {
		t.Fatal(err)
	}
	for q := range flip {
		if survivors[q] != flip[q] {
			t.Fatalf("query %d: PredictSurvivors predicted %d, PredictBatchLabels %d", q, survivors[q], flip[q])
		}
	}
	if _, err := ix.PredictSurvivors(3, flipped[:10], alive); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Fatalf("PredictSurvivors short labels err = %v, want ErrShapeMismatch", err)
	}
	if _, err := ix.PredictSurvivors(3, append([]int{-1}, flipped[1:]...), alive); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("PredictSurvivors negative label err = %v, want ErrDegenerateInput", err)
	}
	if _, err := ix.PredictSurvivors(3, flipped, alive[:10]); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Fatalf("PredictSurvivors short alive mask err = %v, want ErrShapeMismatch", err)
	}
}

// Voting over the surviving prefix of a root's order equals rebuilding an
// index over the survivors alone — on tie-heavy data, for survivor counts
// below, at and above k, with the nearest rows of a query removed, and on
// a derived index's order too.
func TestPredictSurvivorsMatchesRebuild(t *testing.T) {
	train := tieGrid(90, 3, 21)
	queries := tieGrid(25, 3, 22)
	root, err := NewNeighborIndex(train, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := root.RemoveRows([]int{0, 7, 8, 40})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	for _, ix := range []*NeighborIndex{root, derived} {
		n := ix.Train.Len()
		var masks [][]bool
		for _, p := range []float64{1, 0.9, 0.5, 0.05} {
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = r.Float64() < p
			}
			masks = append(masks, alive)
		}
		nearest := make([]bool, n) // every row but query 0's 5 nearest
		for i := range nearest {
			nearest[i] = true
		}
		for _, i := range ix.Order(0)[:5] {
			nearest[i] = false
		}
		masks = append(masks, nearest)
		for mi, alive := range masks {
			var keep []int
			for i, a := range alive {
				if a {
					keep = append(keep, i)
				}
			}
			if len(keep) == 0 {
				continue
			}
			rebuilt, err := NewNeighborIndex(ix.TrainSet().Subset(keep), queries, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 7, len(keep), len(keep) + 2} {
				got, err := ix.PredictSurvivors(k, ix.Train.Y, alive)
				if err != nil {
					t.Fatal(err)
				}
				want := rebuilt.PredictBatch(k)
				for q := range want {
					if got[q] != want[q] {
						t.Fatalf("derived=%v mask %d (%d alive) k=%d query %d: PredictSurvivors %d, rebuild %d",
							ix != root, mi, len(keep), k, q, got[q], want[q])
					}
				}
			}
		}
	}
}

// Concurrent derivations from one shared base must not race and must each
// match their own rebuild (the receiver is never mutated).
func TestConcurrentDerivationsShareBase(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	train := randomNeighborDataset(r, 80, 4, 3)
	queries := randomNeighborDataset(r, 12, 4, 3)
	base, err := NewNeighborIndex(train, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	base.PredictBatch(3)
	const callers = 8
	errs := make(chan error, callers)
	children := make([]*NeighborIndex, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			child, err := base.RemoveRows([]int{c, c + 10, c + 20})
			children[c] = child
			errs <- err
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for c, child := range children {
		if child.Train.Len() != 77 {
			t.Fatalf("caller %d: train = %d rows, want 77", c, child.Train.Len())
		}
		assertIndexBitIdentical(t, child, rebuildIndex(t, child, 1), 3)
	}
}

// A derived index copies no features and no groups: its Train carries
// the survivors' labels only (Train.X and Train.Groups are nil),
// RemoveRows on a derived 20 000 × 32 index with a warm top-k cache
// allocates less than four row-length int slices (the child's labels and
// its geometry's two maps are three), and TrainSet gathers exactly the
// survivors' rows (X, Y and Groups) along a chain that derives from a
// derived index and crosses compaction, whose new root's Train is those
// rows too.
func TestRemoveRowsCopiesNoFeatures(t *testing.T) {
	const n, dim = 20000, 32
	r := rand.New(rand.NewSource(47))
	train := randomNeighborDataset(r, n, dim, 3)
	train.Groups = make([]string, n)
	for i := range train.Groups {
		train.Groups[i] = string(rune('a' + r.Intn(3)))
	}
	root, err := NewNeighborIndex(train, randomNeighborDataset(r, 16, dim, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	root.PredictBatch(5)   // warm the top-k cache, as a session's Accuracy does
	orig := make([]int, n) // the chain's rows as rows of train
	for i := range orig {
		orig[i] = i
	}
	var derived *NeighborIndex
	compactions := 0
	cur := root
	for step, size := range []int{40, 40, 5000, 40} {
		rows := r.Perm(cur.Train.Len())[:size]
		child, err := cur.RemoveRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		gone := make([]bool, cur.Train.Len())
		for _, i := range rows {
			gone[i] = true
		}
		kept := orig[:0]
		for i, g := range gone {
			if !g {
				kept = append(kept, orig[i])
			}
		}
		orig = kept
		want := train.Subset(orig)
		if child.delta == nil {
			compactions++
			sameDataset(t, fmt.Sprintf("step %d: compacted Train", step), child.Train, want)
		} else {
			if child.Train.X != nil {
				t.Fatalf("step %d: derived index holds a %d×%d feature matrix", step, child.Train.X.Rows, child.Train.X.Cols)
			}
			if child.Train.Groups != nil {
				t.Fatalf("step %d: derived index holds %d groups", step, len(child.Train.Groups))
			}
			if derived == nil {
				derived = child
			}
		}
		sameDataset(t, fmt.Sprintf("step %d: TrainSet", step), child.TrainSet(), want)
		cur = child
	}
	if compactions != 1 {
		t.Fatalf("chain compacted %d times, want 1", compactions)
	}
	rm := []int{3, 1000, 7777, 7777, 12000}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := derived.RemoveRows(rm); err != nil {
				b.Fatal(err)
			}
		}
	})
	got, bound := res.AllocedBytesPerOp(), int64(4*n*8)
	if got >= bound {
		t.Fatalf("RemoveRows on a derived %d×%d index allocates %d B/op, want < %d", n, dim, got, bound)
	}
	t.Logf("RemoveRows on a derived %d×%d index: %d B/op, %d allocs/op", n, dim, got, res.AllocsPerOp())
}

// sameDataset fails unless got has want's shape, feature bits, labels and
// groups.
func sameDataset(t *testing.T, ctx string, got, want *Dataset) {
	t.Helper()
	if got.X.Rows != want.X.Rows || got.X.Cols != want.X.Cols {
		t.Fatalf("%s: %d×%d features, want %d×%d", ctx, got.X.Rows, got.X.Cols, want.X.Rows, want.X.Cols)
	}
	for i, v := range want.X.Data {
		if math.Float64bits(got.X.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: feature %d = %x, want %x", ctx, i, math.Float64bits(got.X.Data[i]), math.Float64bits(v))
		}
	}
	if !slices.Equal(got.Y, want.Y) || !slices.Equal(got.Groups, want.Groups) {
		t.Fatalf("%s: labels or groups differ from the survivors'", ctx)
	}
}
