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

// kernelCase is one index the kernel scores, with the labels of its
// training rows and the training set a rebuild would index.
type kernelCase struct {
	name   string
	ix     *ml.NeighborIndex
	trainY []int
	want   *ml.Dataset
}

// kernelCases returns train's root index plus a RemoveRows-derived
// child of it.
func kernelCases(t *testing.T, r *rand.Rand, train, valid *ml.Dataset) []kernelCase {
	t.Helper()
	root, err := ml.NewNeighborIndex(train, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []kernelCase{{"root", root, train.Y, train}}
	if train.Len() < 2 {
		return cases
	}
	rm := make([]int, 1+r.Intn(train.Len()-1))
	for i := range rm {
		rm[i] = r.Intn(train.Len())
	}
	removed, err := root.RemoveRows(rm)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, kernelCase{"removed", removed, removed.Train.Y, removed.Train})
}

// checkKernel asserts the kernel equals the reference bit for bit on
// every case and worker count. Each derived index is scored first while
// it has no order table (the walk path of OrderInto) and once more after
// Order built the table (the cached-row path).
func checkKernel(t *testing.T, ctx string, k int, cases []kernelCase, valid *ml.Dataset, workers []int) {
	t.Helper()
	for _, c := range cases {
		want := referenceKNNShapley(t, k, c.want, valid)
		for pass := 0; pass < 2; pass++ {
			for _, w := range workers {
				got, stats := knnShapleyKernel(k, c.ix, c.trainY, valid.Y, w, nil)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s k=%d workers=%d pass=%d: score[%d] = %x, reference %x",
							ctx, c.name, k, w, pass, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
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
// indexes, and several worker counts.
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

// The parallel path works in blocks of validation points; these shapes
// leave a short last block at their worker count, including one where
// the block is raised to the worker count because n is too large for the
// byte bound. Each shape also runs at GOMAXPROCS, whose block may differ.
func TestKernelBlocksMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1208))
	for _, shape := range []struct{ n, valid, workers int }{
		{3000, 100, 2},
		{3000, 100, 3},
		{50000, 7, 3},
	} {
		block := kernelBlockBytes / (8 * shape.n)
		if block < shape.workers {
			block = shape.workers
		}
		if shape.valid <= block || shape.valid%block == 0 {
			t.Fatalf("shape %+v: block %d leaves no short last block", shape, block)
		}
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
		cases := []kernelCase{
			{"root", root, train.Y, train},
			{"removed", removed, removed.Train.Y, removed.Train},
		}
		checkKernel(t, "blocks", 5, cases, valid, []int{shape.workers, runtime.GOMAXPROCS(0)})
	}
}
