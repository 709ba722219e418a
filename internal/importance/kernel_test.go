package importance

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nde/internal/linalg"
	"nde/internal/ml"
)

// knnShapleyContrib is the closed-form recurrence as first written: the
// label test branches and every rank pays two divisions. It fills s with
// one validation point's contributions in rank order. It is the
// reference the kernel is checked against bit for bit: every production
// path runs the one kernel, so comparing the paths with each other would
// only compare the kernel with itself.
func knnShapleyContrib(k int, trainY []int, y int, order []int32, s []float64) {
	n := len(order)
	match := func(pos int) float64 {
		if trainY[order[pos]] == y {
			return 1
		}
		return 0
	}
	s[n-1] = match(n-1) / float64(n)
	for j := n - 2; j >= 0; j-- {
		rank := j + 1 // 1-based rank of position j
		s[j] = s[j+1] + (match(j)-match(j+1))/float64(k)*minF(float64(k), float64(rank))/float64(rank)
	}
}

// referenceKNNShapley scores train against valid serially with the
// reference recurrence over a freshly built index, adding the validation
// points' contributions in validation order.
func referenceKNNShapley(t *testing.T, k int, train, valid *ml.Dataset) Scores {
	t.Helper()
	ix, err := ml.NewNeighborIndex(train, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := train.Len()
	scores := make(Scores, n)
	s := make([]float64, n)
	for v := 0; v < valid.Len(); v++ {
		order := ix.Order(v)
		knnShapleyContrib(k, train.Y, valid.Y[v], order, s)
		for j := 0; j < n; j++ {
			scores[order[j]] += s[j]
		}
	}
	inv := 1 / float64(valid.Len())
	for i := range scores {
		scores[i] *= inv
	}
	return scores
}

// tieDataset draws n rows of dim 2 with labels in [0, classes): about
// half repeat an earlier row and a quarter sit on a 3×3 integer grid, so
// distances tie often.
func tieDataset(r *rand.Rand, n, classes int) *ml.Dataset {
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		switch c := r.Intn(4); {
		case i > 0 && c < 2:
			copy(x.Row(i), x.Row(r.Intn(i)))
		case c == 2:
			x.Set(i, 0, float64(r.Intn(3)))
			x.Set(i, 1, float64(r.Intn(3)))
		default:
			x.Set(i, 0, r.NormFloat64())
			x.Set(i, 1, r.NormFloat64())
		}
		y[i] = r.Intn(classes)
	}
	d, _ := ml.NewDataset(x, y)
	return d
}

// kernelCase is one index the kernel scores, at the check's k unless k
// is set.
type kernelCase struct {
	name string
	ix   *ml.NeighborIndex
	k    int
}

// kernelCases returns train's root index and indexes derived from it: a
// random removal, which may compact; a single survivor, which always
// compacts (dead·4 > n for every n >= 2); and, on training sets large
// enough to hold them under the compaction bound, derived indexes that
// walk the root's order: a tombstone share just below that bound, query
// 0's farthest row among the tombstones; one scored with k above its
// survivor count; and a child of a derived index, flattened onto the
// same root, so its rows skip two generations of tombstones.
func kernelCases(t *testing.T, r *rand.Rand, train, valid *ml.Dataset) []kernelCase {
	t.Helper()
	root, err := ml.NewNeighborIndex(train, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []kernelCase{{name: "root", ix: root}}
	n := train.Len()
	if n < 2 {
		return cases
	}
	derive := func(name string, parent *ml.NeighborIndex, rm []int, walks bool) *ml.NeighborIndex {
		t.Helper()
		child, err := parent.RemoveRows(rm)
		if err != nil {
			t.Fatal(err)
		}
		if _, physOf := child.Walk(); walks && physOf == nil {
			t.Fatalf("%s: fixture compacted; the case needs the root-order walk", name)
		}
		cases = append(cases, kernelCase{name: name, ix: child})
		return child
	}
	rm := make([]int, 1+r.Intn(n-1))
	for i := range rm {
		rm[i] = r.Intn(n)
	}
	derive("removed", root, rm, false)
	derive("single", root, r.Perm(n)[:n-1], false)
	dead := n / 4
	if dead == 0 {
		return cases
	}
	far := int(root.Order(0)[n-1])
	rm = []int{far}
	for _, i := range r.Perm(n) {
		if len(rm) < dead && i != far {
			rm = append(rm, i)
		}
	}
	derive("dense", root, rm, true)
	over := derive("k>n", root, r.Perm(n)[:dead], true)
	cases[len(cases)-1].k = over.Train.Len() + 1 + r.Intn(3)
	if first := n / 8; first > 0 {
		parent, err := root.RemoveRows(r.Perm(n)[:first])
		if err != nil {
			t.Fatal(err)
		}
		derive("chained", parent, r.Perm(n - first)[:dead-first], true)
	}
	return cases
}

// checkKernel asserts the kernel equals the reference bit for bit on
// every case and worker count. Each derived index is scored first while
// it has no order table (the walk over its root's order) and once more
// after Order built the table (its own order).
func checkKernel(t *testing.T, ctx string, k int, cases []kernelCase, valid *ml.Dataset, workers []int) {
	t.Helper()
	for _, c := range cases {
		kk := k
		if c.k > 0 {
			kk = c.k
		}
		want := referenceKNNShapley(t, kk, c.ix.TrainSet(), valid)
		for pass := 0; pass < 2; pass++ {
			for _, w := range workers {
				got, stats := knnShapleyKernel(kk, c.ix, c.ix.Train.Y, valid.Y, w, nil)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s k=%d workers=%d pass=%d: score[%d] = %x, reference %x",
							ctx, c.name, kk, w, pass, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				total := 0
				for _, cnt := range stats.PerWorker {
					total += cnt
				}
				if total != valid.Len() || stats.Points != valid.Len() {
					t.Fatalf("%s %s workers=%d: stats count %d/%d points, want %d", ctx, c.name, w, total, stats.Points, valid.Len())
				}
			}
			c.ix.Order(0)
		}
	}
}

// The kernel is Float64bits-identical to the reference recurrence on
// random shapes: n in [1,300], k in [1,n+2], multi-class labels with
// validation labels absent from train, tied distances, root and derived
// indexes (kernelCases), and several worker counts.
func TestKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1207))
	workers := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(300)
		k := 1 + r.Intn(n+2)
		classes := 1 + r.Intn(4)
		train := tieDataset(r, n, classes)
		valid := tieDataset(r, 1+r.Intn(40), classes+2)
		checkKernel(t, "random", k, kernelCases(t, r, train, valid), valid, workers)
	}
}

// The parallel path works in blocks of validation points, as many as
// fit the byte bound at the width the kernel writes: the root's rows
// while a derived index walks its root's order, its own once it has a
// table. These shapes leave a short last block at their worker count at
// both widths, including one where the block is raised to the worker
// count because n is too large for the byte bound. Each shape also runs
// at GOMAXPROCS, whose block may differ.
func TestKernelBlocksMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1208))
	for _, shape := range []struct{ n, valid, workers int }{
		{3000, 100, 2},
		{3000, 100, 3},
		{50000, 7, 3},
	} {
		train := tieDataset(r, shape.n, 3)
		valid := tieDataset(r, shape.valid, 4)
		root, err := ml.NewNeighborIndex(train, valid, 1)
		if err != nil {
			t.Fatal(err)
		}
		removed, err := root.RemoveRows([]int{0, shape.n / 2, shape.n - 1})
		if err != nil {
			t.Fatal(err)
		}
		cases := []kernelCase{{name: "root", ix: root}, {name: "removed", ix: removed}}
		for _, c := range cases {
			walked, _ := c.ix.Walk()
			for _, width := range []int{walked.Train.Len(), c.ix.Train.Len()} {
				block := kernelBlockBytes / (8 * width)
				if block < shape.workers {
					block = shape.workers
				}
				if shape.valid <= block || shape.valid%block == 0 {
					t.Fatalf("shape %+v, %s at width %d: block %d leaves no short last block", shape, c.name, width, block)
				}
			}
		}
		checkKernel(t, "blocks", 5, cases, valid, []int{shape.workers, runtime.GOMAXPROCS(0)})
	}
}
