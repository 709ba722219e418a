package importance

import (
	"errors"
	"math"
	"sync"
	"testing"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
)

// The three kNN-Shapley entry points — sequential, pooled, and explicit
// index — must agree bit-for-bit.
func TestKNNShapleyAllPathsBitIdentical(t *testing.T) {
	train := blobs(90, 1.5, 901)
	valid := blobs(45, 1.5, 902)
	seq, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	par, err := KNNShapleyParallel(5, train, valid, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ml.NewNeighborIndex(train, valid, 2)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := KNNShapleyWithIndex(5, ix, train.Y, valid.Y, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] || seq[i] != indexed[i] {
			t.Fatalf("score %d diverges: seq %v par %v indexed %v", i, seq[i], par[i], indexed[i])
		}
	}
}

// KNNShapleyWithIndex reads labels only from its arguments: over an index
// whose Train.Y and Queries.Y are another label revision it scores the
// labels passed in, bit-for-bit as KNNShapley does on them, and labels of
// the wrong length are a shape mismatch.
func TestKNNShapleyWithIndexScoresPassedLabels(t *testing.T) {
	train := blobs(60, 1.5, 911)
	valid := blobs(25, 1.5, 912)
	want, err := KNNShapley(3, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	flipped, flippedValid := train.Clone(), valid.Clone()
	for i, y := range flipped.Y {
		flipped.Y[i] = 1 - y
	}
	for i, y := range flippedValid.Y {
		flippedValid.Y[i] = 1 - y
	}
	ix, err := ml.NewNeighborIndex(flipped, flippedValid, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := KNNShapleyWithIndex(3, ix, train.Y, valid.Y, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d score %d = %v, want %v (the passed labels)", workers, i, got[i], want[i])
			}
		}
	}

	for name, labels := range map[string][2][]int{
		"short train": {train.Y[1:], valid.Y},
		"long train":  {append(append([]int(nil), train.Y...), 0), valid.Y},
		"short valid": {train.Y, valid.Y[1:]},
		"nil valid":   {train.Y, nil},
	} {
		if _, err := KNNShapleyWithIndex(3, ix, labels[0], labels[1], 1); !errors.Is(err, nderr.ErrShapeMismatch) {
			t.Errorf("%s labels: err = %v, want ErrShapeMismatch", name, err)
		}
	}
}

// indexStoreCapacity is the bound of ml.NewIndexStore's stores.
const indexStoreCapacity = 4

// storedScores scores (train, valid) over the index st holds for its
// geometry, as a store owner does.
func storedScores(t *testing.T, st *ml.IndexStore, k int, train, valid *ml.Dataset, workers int) Scores {
	t.Helper()
	ix, err := st.Index(ml.KeyOf(train, valid), train, valid, workers)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := KNNShapleyWithIndex(k, ix, train.Y, valid.Y, workers)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

// counter reads one of the store's obs counters.
func counter(name string) int64 {
	return obs.Default().Counter("importance_neighbor_index_" + name + "_total").Value()
}

// withStoreObs turns metrics on for one test.
func withStoreObs(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
}

// Repeated scoring over the same features through one store must hit
// the stored index — the distance matrix is computed exactly once — and
// score what KNNShapley scores; hits and misses are exported as
// counters.
func TestSharedNeighborIndexCacheHits(t *testing.T) {
	withStoreObs(t)
	st := ml.NewIndexStore()
	train := blobs(50, 1.5, 903)
	valid := blobs(25, 1.5, 904)
	want, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresBitIdentical(t, storedScores(t, st, 5, train, valid, 1), want, "stored index")
	if misses := counter("misses"); misses != 1 {
		t.Fatalf("misses after first call = %d, want 1", misses)
	}
	storedScores(t, st, 3, train, valid, 1) // different k, same geometry
	storedScores(t, st, 5, train, valid, 2)
	if got := counter("hits"); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := counter("misses"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// Label-only mutations (the iterative-cleaning pattern) reuse the stored
// geometry, but the scores must still reflect the new labels; a feature
// mutation must produce a miss.
func TestSharedNeighborIndexLabelAndFeatureMutations(t *testing.T) {
	withStoreObs(t)
	st := ml.NewIndexStore()
	train := blobs(40, 1.5, 905)
	valid := blobs(20, 1.5, 906)
	before := storedScores(t, st, 5, train, valid, 1)

	// flip a label in place: same features → hit, different scores
	train.Y[3] = 1 - train.Y[3]
	after := storedScores(t, st, 5, train, valid, 1)
	if got := counter("hits"); got != 1 {
		t.Errorf("label flip: hits = %d, want 1", got)
	}
	want, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresBitIdentical(t, after, want, "after label flip")
	// the flipped point's own score must move: its match indicator changed
	// at every validation point
	if after[3] == before[3] {
		t.Errorf("flipped point score unchanged at %v (stale labels served from the store?)", after[3])
	}

	// mutate a feature in place: the fingerprint must detect it
	train.X.Set(0, 0, train.X.At(0, 0)+10)
	storedScores(t, st, 5, train, valid, 1)
	if got := counter("misses"); got != 2 {
		t.Errorf("feature mutation: misses = %d, want 2", got)
	}
}

// The store is bounded: once more geometries than it holds have been
// built, the least recently used ones are evicted and the store holds
// exactly its bound.
func TestSharedNeighborIndexCacheEviction(t *testing.T) {
	withStoreObs(t)
	st := ml.NewIndexStore()
	const geometries = indexStoreCapacity + 2
	trains := make([]*ml.Dataset, geometries)
	valids := make([]*ml.Dataset, geometries)
	for i := range trains {
		trains[i] = blobs(20, 1.5, int64(910+i))
		valids[i] = blobs(10, 1.5, int64(930+i))
		storedScores(t, st, 3, trains[i], valids[i], 1)
	}
	if got := counter("evictions"); got != geometries-indexStoreCapacity {
		t.Errorf("evictions = %d, want %d", got, geometries-indexStoreCapacity)
	}
	if got := obs.Default().Gauge("importance_neighbor_index_entries").Value(); got != indexStoreCapacity {
		t.Errorf("store holds %v entries, want %d", got, indexStoreCapacity)
	}
	storedScores(t, st, 3, trains[geometries-1], valids[geometries-1], 1)
	if got := counter("hits"); got != 1 {
		t.Errorf("newest geometry: hits = %d, want 1", got)
	}
	storedScores(t, st, 3, trains[0], valids[0], 1)
	if got := counter("misses"); got != geometries+1 {
		t.Errorf("oldest geometry: misses = %d, want %d (it was evicted)", got, geometries+1)
	}
}

// Concurrent first callers for the SAME geometry must coalesce into one
// singleflight build: exactly one miss, everyone else hits (possibly after
// blocking on the in-flight build), and all callers get the same index.
func TestSharedNeighborIndexSingleflight(t *testing.T) {
	withStoreObs(t)
	st := ml.NewIndexStore()
	train := blobs(80, 1.5, 940)
	valid := blobs(40, 1.5, 941)
	const callers = 8
	indexes := make([]*ml.NeighborIndex, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			ix, err := st.Index(ml.KeyOf(train, valid), train, valid, 1)
			if err != nil {
				t.Error(err)
				return
			}
			indexes[c] = ix
		}(c)
	}
	close(start)
	wg.Wait()
	for c := 1; c < callers; c++ {
		if indexes[c] != indexes[0] {
			t.Fatalf("caller %d got a different index instance", c)
		}
	}
	if misses := counter("misses"); misses != 1 {
		t.Errorf("misses = %d, want 1 (build ran more than once)", misses)
	}
	if hits := counter("hits"); hits != callers-1 {
		t.Errorf("hits = %d, want %d", hits, callers-1)
	}
}

// Concurrent builds for DIFFERENT geometries must not serialize behind one
// lock held across the build: under churn from many goroutines the store
// stays within its bound + in-flight builds at every observation point
// (in-flight entries are never evicted, so concurrent distinct builds may
// transiently overflow the bound), trims back to the bound once the churn
// settles, and every evicted slot is accounted for in the eviction
// counter.
func TestSharedNeighborIndexChurnBounded(t *testing.T) {
	withStoreObs(t)
	st := ml.NewIndexStore()
	const datasets = 10
	trains := make([]*ml.Dataset, datasets)
	valids := make([]*ml.Dataset, datasets)
	for i := range trains {
		trains[i] = blobs(30, 1.5, int64(950+i))
		valids[i] = blobs(15, 1.5, int64(970+i))
	}
	const goroutines = 6
	const iters = 8
	const bound = indexStoreCapacity + goroutines
	entries := func() float64 { return obs.Default().Gauge("importance_neighbor_index_entries").Value() }
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				d := (g*iters + it) % datasets
				if _, err := st.Index(ml.KeyOf(trains[d], valids[d]), trains[d], valids[d], 1); err != nil {
					t.Error(err)
					return
				}
				if nc := entries(); nc > bound {
					t.Errorf("store grew past bound: %v entries, max %d + %d in flight", nc, indexStoreCapacity, goroutines)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if nc := entries(); nc != indexStoreCapacity {
		t.Errorf("final store size %v, want %d", nc, indexStoreCapacity)
	}
	misses, evictions := counter("misses"), counter("evictions")
	if misses < datasets {
		t.Errorf("misses = %d, want >= %d distinct geometries", misses, datasets)
	}
	if evictions != misses-indexStoreCapacity {
		t.Errorf("evictions = %d, want misses-cap = %d", evictions, misses-indexStoreCapacity)
	}
}
