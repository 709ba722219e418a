package ml

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"nde/internal/linalg"
	"nde/internal/nderr"
)

func randomNeighborDataset(r *rand.Rand, n, dim, classes int) *Dataset {
	x := linalg.NewMatrix(n, dim)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(classes)
	}
	d, _ := NewDataset(x, y)
	return d
}

// clusteredDataset draws n rows around c Gaussian blob centers, so many
// rows sit at near-equal distances from a query.
func clusteredDataset(r *rand.Rand, n, dim, c, classes int) *Dataset {
	centers := linalg.NewMatrix(c, dim)
	for i := range centers.Data {
		centers.Data[i] = r.NormFloat64() * 10
	}
	x := linalg.NewMatrix(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		ctr := centers.Row(r.Intn(c))
		row := x.Row(i)
		for j := range row {
			row[j] = ctr[j] + r.NormFloat64()
		}
		y[i] = r.Intn(classes)
	}
	d, _ := NewDataset(x, y)
	return d
}

// workers=1 ≡ workers=N: indexes over the same data built with 1, 2, 3
// and GOMAXPROCS workers agree bit for bit — same D2 bits, same orders,
// same top-k, same batch predictions — and an order table built by the
// blocked kernel into scratch (no D2) equals one sorted from a stored D2.
func TestNeighborIndexBitIdenticalAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	train := clusteredDataset(r, 120, 6, 5, 3)
	queries := clusteredDataset(r, 37, 6, 5, 3) // a short last kernel row block
	base, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	bd2 := base.D2()
	for _, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		ix, err := NewNeighborIndex(train, queries, w)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := NewNeighborIndex(train, queries, w)
		if err != nil {
			t.Fatal(err)
		}
		sorted.D2()
		ix.Order(0)
		if ix.d2.Load() != nil {
			t.Fatalf("workers=%d: building the order table stored a distance matrix", w)
		}
		for q := 0; q < queries.Len(); q++ {
			bo, gg, so := base.Order(q), ix.Order(q), sorted.Order(q)
			for i := range bo {
				if bo[i] != gg[i] || bo[i] != so[i] {
					t.Fatalf("workers=%d query %d: order rank %d differs: %d, blocked %d, sorted from D2 %d", w, q, i, bo[i], gg[i], so[i])
				}
			}
			bt, gt := base.TopK(q, 7), ix.TopK(q, 7)
			for i := range bt {
				if bt[i] != gt[i] {
					t.Fatalf("workers=%d query %d: top-k rank %d differs", w, q, i)
				}
			}
		}
		bp, gp := base.PredictBatch(5), ix.PredictBatch(5)
		for q := range bp {
			if bp[q] != gp[q] {
				t.Fatalf("workers=%d: prediction %d differs", w, q)
			}
		}
		gd2 := ix.D2()
		for i := range bd2.Data {
			if math.Float64bits(bd2.Data[i]) != math.Float64bits(gd2.Data[i]) {
				t.Fatalf("workers=%d: D2 element %d differs bitwise", w, i)
			}
		}
	}
}

// TopK and PredictBatchLabels answer from the order table's prefix when
// it exists and by quickselect over D2 when it does not; on a grid with
// many tied distances both give the same ids in the same order, and the
// same votes.
func TestTopKFromOrderPrefixMatchesQuickselect(t *testing.T) {
	x := linalg.NewMatrix(0, 2)
	var y []int
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			for rep := 0; rep < 1+(i+j)%3; rep++ {
				x.Data = append(x.Data, float64(i), float64(j))
				x.Rows++
				y = append(y, (i*7+j+rep)%3)
			}
		}
	}
	train, _ := NewDataset(x, y)
	qx := linalg.NewMatrix(9, 2)
	for q := 0; q < 9; q++ {
		qx.Set(q, 0, float64(q%3)*2.5)
		qx.Set(q, 1, float64(q/3)*3)
	}
	queries, _ := NewDataset(qx, make([]int, 9))
	flipped := make([]int, train.Len())
	for i := range flipped {
		flipped[i] = (y[i] + 1) % 3
	}
	for _, k := range []int{1, 4, 9, 30, train.Len()} {
		quick, err := NewNeighborIndex(train, queries, 2)
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := NewNeighborIndex(train, queries, 2)
		if err != nil {
			t.Fatal(err)
		}
		prefix.Order(0)
		for q := 0; q < queries.Len(); q++ {
			qt, pt := quick.TopK(q, k), prefix.TopK(q, k)
			for i := range qt {
				if qt[i] != pt[i] {
					t.Fatalf("k=%d query %d: TopK rank %d = %d from the order prefix, %d by quickselect", k, q, i, pt[i], qt[i])
				}
			}
		}
		qp, err := quick.PredictBatchLabels(k, flipped)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := prefix.PredictBatchLabels(k, flipped)
		if err != nil {
			t.Fatal(err)
		}
		for q := range qp {
			if qp[q] != pp[q] {
				t.Fatalf("k=%d query %d: prefix predicts %d, quickselect %d", k, q, pp[q], qp[q])
			}
		}
		if quick.ordersReady.Load() {
			t.Fatalf("k=%d: the quickselect path built an order table", k)
		}
		if prefix.d2.Load() != nil {
			t.Fatalf("k=%d: the order-prefix path computed D2", k)
		}
	}
}

// Property: quickselect top-k matches the prefix of the full sort under
// the same (distance, index) total order.
func TestQuickTopKMatchesFullSortPrefix(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		train := randomNeighborDataset(r, n, 1+r.Intn(4), 2)
		queries := randomNeighborDataset(r, 1+r.Intn(6), train.Dim(), 2)
		ix, err := NewNeighborIndex(train, queries, 1+r.Intn(4))
		if err != nil {
			return false
		}
		k := 1 + r.Intn(n)
		for q := 0; q < queries.Len(); q++ {
			full := ix.Order(q)
			top := ix.TopK(q, k)
			if len(top) != k {
				return false
			}
			for i := range top {
				if top[i] != int(full[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The index order must agree with KNN.Neighbors (the per-query path).
func TestNeighborIndexOrderMatchesKNNNeighbors(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	train := randomNeighborDataset(r, 60, 5, 3)
	queries := randomNeighborDataset(r, 15, 5, 3)
	knn := NewKNN(5)
	if err := knn.Fit(train); err != nil {
		t.Fatal(err)
	}
	ix, err := NewNeighborIndex(train, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries.Len(); q++ {
		want := knn.Neighbors(queries.Row(q))
		got := ix.Order(q)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: index %d vs Neighbors %d", q, i, got[i], want[i])
			}
		}
	}
}

// TopK must handle duplicate points (distance ties) deterministically:
// ties break toward the smaller training index.
func TestTopKDistanceTiesBreakByIndex(t *testing.T) {
	x := linalg.NewMatrix(6, 1)
	// three pairs of duplicates at distances 0, 1, 4 from the query 0
	vals := []float64{1, 0, 1, 2, 0, 2}
	copy(x.Data, vals)
	train, _ := NewDataset(x, []int{0, 1, 0, 1, 0, 1})
	qx := linalg.NewMatrix(1, 1)
	queries, _ := NewDataset(qx, []int{0})
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 0, 2, 3, 5} // d2 0,0,1,1,4,4 with index tie-breaks
	got := ix.Order(0)
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	for k := 1; k <= 6; k++ {
		top := ix.TopK(0, k)
		for i := 0; i < k; i++ {
			if top[i] != want[i] {
				t.Fatalf("k=%d: top = %v, want prefix of %v", k, top, want)
			}
		}
	}
}

// PredictBatch equals KNN.Predict row by row on the same training set: on
// continuous rows, on the tie-heavy grid, and on the near-tie pair, for k
// below, at and above the training size, at every worker count.
func TestPredictBatchMatchesPredict(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tieTrain, tieQueries := nearTie()
	inputs := []struct {
		name           string
		train, queries *Dataset
	}{
		{"continuous", randomNeighborDataset(r, 80, 4, 3), randomNeighborDataset(r, 30, 4, 3)},
		{"grid", tieGrid(120, 3, 1), tieGrid(80, 3, 2)},
		{"near-tie", tieTrain, tieQueries},
	}
	for _, in := range inputs {
		n := in.train.Len()
		for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
			ix, err := NewNeighborIndex(in.train, in.queries, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 4, 7, n, n + 3} {
				batch := ix.PredictBatch(k)
				knn := NewKNN(k)
				if err := knn.Fit(in.train); err != nil {
					t.Fatal(err)
				}
				for q := 0; q < in.queries.Len(); q++ {
					if want := knn.Predict(in.queries.Row(q)); batch[q] != want {
						t.Fatalf("%s workers=%d k=%d query %d: batch %d vs predict %d", in.name, workers, k, q, batch[q], want)
					}
				}
			}
		}
	}
	// the near-tie pair's 1-NN is row 1, label 1, by the Gram kernel
	knn := NewKNN(1)
	if err := knn.Fit(tieTrain); err != nil {
		t.Fatal(err)
	}
	if got := knn.Predict(tieQueries.Row(0)); got != 1 {
		t.Fatalf("near-tie 1-NN predicts %d, want 1", got)
	}
}

// The default top-k build runs the kernel a block of rows at a time into
// per-worker scratch: on continuous and tie-heavy rows it yields the ids
// a quickselect over the stored D2 yields, in the same order, at every
// worker count with a short last block; it stores no distance matrix;
// and its allocations do not grow with the number of queries.
func TestBlockedTopKMatchesQuickselect(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	train := clusteredDataset(r, 150, 5, 4, 3)
	inputs := []struct{ train, queries *Dataset }{
		{train, clusteredDataset(r, 37, 5, 4, 3)}, // blocks of 16, 16 and 5
		{tieGrid(150, 3, 3), tieGrid(37, 3, 4)},
	}
	for _, in := range inputs {
		ref, err := NewNeighborIndex(in.train, in.queries, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 16, in.train.Len()} {
			for _, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
				ix, err := NewNeighborIndex(in.train, in.queries, w)
				if err != nil {
					t.Fatal(err)
				}
				ids := ix.ensureTopK(k)
				if ix.d2.Load() != nil || ix.ordersReady.Load() {
					t.Fatalf("k=%d workers=%d: the top-k build stored a distance matrix or an order table", k, w)
				}
				for q := 0; q < in.queries.Len(); q++ {
					want := ref.TopK(q, k)
					for i, id := range ids[q*k : (q+1)*k] {
						if int(id) != want[i] {
							t.Fatalf("k=%d workers=%d query %d rank %d: blocked %d, quickselect over D2 %d", k, w, q, i, id, want[i])
						}
					}
				}
			}
		}
	}
	build := func(q int) float64 {
		qs := clusteredDataset(rand.New(rand.NewSource(53)), q, 5, 4, 3)
		return testing.AllocsPerRun(5, func() {
			ix, err := NewNeighborIndex(train, qs, 2)
			if err != nil {
				t.Fatal(err)
			}
			ix.ensureTopK(5)
		})
	}
	if few, many := build(20), build(400); many > few {
		t.Fatalf("top-k build allocates %v times for 20 queries and %v for 400", few, many)
	}
}

func TestNeighborIndexTopKClamping(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	train := randomNeighborDataset(r, 5, 2, 2)
	queries := randomNeighborDataset(r, 2, 2, 2)
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.TopK(0, 100); len(got) != 5 {
		t.Errorf("k>n returned %d indices, want 5", len(got))
	}
	if got := ix.TopK(0, 0); got != nil {
		t.Errorf("k=0 returned %v, want nil", got)
	}
}

// NewNeighborIndex rejects an empty training set and queries of another
// dimension, each with its classified error.
func TestNeighborIndexErrors(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	train := randomNeighborDataset(r, 5, 2, 2)
	empty := &Dataset{X: linalg.NewMatrix(0, 2)}
	if _, err := NewNeighborIndex(empty, train, 0); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Errorf("empty train err = %v, want ErrEmptyInput", err)
	}
	mismatch := randomNeighborDataset(r, 4, 3, 2)
	if _, err := NewNeighborIndex(train, mismatch, 0); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Errorf("dim mismatch err = %v, want ErrShapeMismatch", err)
	}
}

// Training ids are int32 in the order table: the row-count check that
// NewNeighborIndex runs accepts math.MaxInt32 rows and rejects one more
// as degenerate input, checked on the count alone.
func TestNeighborIndexRejectsMoreThanMaxInt32Rows(t *testing.T) {
	if err := checkTrainRows(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 rows: %v", err)
	}
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: no larger row count exists")
	}
	over := int64(math.MaxInt32) + 1
	if err := checkTrainRows(int(over)); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("MaxInt32+1 rows: err = %v, want ErrDegenerateInput", err)
	}
}

// selectK against a reference sort, across random shapes and k.
func TestQuickSelectKProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		pairs := make([]distIdx, n)
		for i := range pairs {
			// coarse values force plenty of distance ties
			pairs[i] = distIdx{d: float64(r.Intn(5)), i: i}
		}
		ref := append([]distIdx(nil), pairs...)
		sort.Sort(byDistIdx(ref))
		k := 1 + r.Intn(n)
		selectK(pairs, k)
		got := append([]distIdx(nil), pairs[:k]...)
		sort.Sort(byDistIdx(got))
		for i := 0; i < k; i++ {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Regression: a NaN feature makes the (distance, index) comparator a
// non-strict weak order, so quickselect used to return silently wrong
// top-k neighbors. The index build must reject poisoned features with a
// wrapped nderr.ErrNonFinite instead.
func TestNeighborIndexRejectsPoisonedFeatures(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	train := randomNeighborDataset(r, 30, 3, 2)
	queries := randomNeighborDataset(r, 5, 3, 2)

	poisoned := train.Clone()
	poisoned.X.Set(12, 1, math.NaN())
	if _, err := NewNeighborIndex(poisoned, queries, 1); err == nil {
		t.Fatal("expected error for NaN train feature")
	} else if !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("error %v does not wrap nderr.ErrNonFinite", err)
	} else if !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("error %v does not wrap nderr.ErrDegenerateInput", err)
	}

	infQueries := queries.Clone()
	infQueries.X.Set(2, 0, math.Inf(-1))
	if _, err := NewNeighborIndex(train, infQueries, 1); err == nil {
		t.Fatal("expected error for Inf query feature")
	} else if !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("error %v does not wrap nderr.ErrNonFinite", err)
	}

	// the clean pair still builds and answers
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.TopK(0, 5)); got != 5 {
		t.Fatalf("TopK returned %d neighbors, want 5", got)
	}
}

// NewDataset is the other boundary: literal NaN/Inf features must be
// rejected at construction with the same error family.
func TestNewDatasetRejectsNonFinite(t *testing.T) {
	x := linalg.NewMatrix(4, 2)
	x.Set(3, 1, math.NaN())
	if _, err := NewDataset(x, []int{0, 1, 0, 1}); !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("NewDataset with NaN: err = %v, want ErrNonFinite", err)
	}
	x2 := linalg.NewMatrix(2, 1)
	x2.Set(0, 0, math.Inf(1))
	if _, err := NewDataset(x2, []int{0, 1}); !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("NewDataset with +Inf: err = %v, want ErrNonFinite", err)
	}
	if _, err := NewDataset(linalg.NewMatrix(2, 1), []int{0}); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Fatalf("NewDataset with mismatched labels: err = %v, want ErrShapeMismatch", err)
	}
}

// CheckTrainable classifies the degenerate training sets the importance
// methods must refuse.
func TestCheckTrainable(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	good := randomNeighborDataset(r, 10, 2, 2)
	if err := good.CheckTrainable("train"); err != nil {
		t.Fatalf("clean dataset flagged: %v", err)
	}
	single := randomNeighborDataset(r, 10, 2, 1)
	if err := single.CheckTrainable("train"); !errors.Is(err, nderr.ErrSingleClass) {
		t.Fatalf("single-class: err = %v, want ErrSingleClass", err)
	}
	var nilDS *Dataset
	if err := nilDS.CheckTrainable("train"); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("nil: err = %v, want ErrEmptyInput", err)
	}
	empty := &Dataset{X: linalg.NewMatrix(0, 2)}
	if err := empty.CheckTrainable("train"); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("empty: err = %v, want ErrEmptyInput", err)
	}
}
