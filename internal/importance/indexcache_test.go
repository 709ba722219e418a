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

// Repeated calls over the same features must hit the shared index cache —
// the distance matrix is computed exactly once — and hits/misses are
// exported as counters.
func TestSharedNeighborIndexCacheHits(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	train := blobs(50, 1.5, 903)
	valid := blobs(25, 1.5, 904)
	if _, err := KNNShapley(5, train, valid); err != nil {
		t.Fatal(err)
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	if misses != 1 {
		t.Fatalf("misses after first call = %d, want 1", misses)
	}
	if _, err := KNNShapley(3, train, valid); err != nil { // different k, same geometry
		t.Fatal(err)
	}
	if _, err := KNNShapleyParallel(5, train, valid, 2); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("importance_neighbor_index_hits_total").Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := obs.Default().Counter("importance_neighbor_index_misses_total").Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// Label-only mutations (the iterative-cleaning pattern) may reuse the
// cached geometry, but the scores must still reflect the new labels; a
// feature mutation must produce a cache miss.
func TestSharedNeighborIndexLabelAndFeatureMutations(t *testing.T) {
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	train := blobs(40, 1.5, 905)
	valid := blobs(20, 1.5, 906)
	before, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}

	// flip a label in place: same features → cache hit, different scores
	train.Y[3] = 1 - train.Y[3]
	after, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range before {
		if before[i] != after[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("label flip did not change any score (stale labels served from cache?)")
	}
	// the flipped point's own score must move: its match indicator changed
	// at every validation point
	if after[3] == before[3] {
		t.Errorf("flipped point score unchanged at %v", after[3])
	}

	// mutate a feature in place: the fingerprint must detect it
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	train.X.Set(0, 0, train.X.At(0, 0)+10)
	if _, err := KNNShapley(5, train, valid); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("importance_neighbor_index_misses_total").Value(); got != 1 {
		t.Errorf("feature mutation produced %d misses, want 1", got)
	}
}

// The cache is bounded: once more geometries than the capacity have been
// built, the store holds exactly the capacity.
func TestSharedNeighborIndexCacheEviction(t *testing.T) {
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	for i := 0; i < IndexCacheCapacity()+2; i++ {
		train := blobs(20, 1.5, int64(910+i))
		valid := blobs(10, 1.5, int64(930+i))
		if _, err := KNNShapley(3, train, valid); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ml.SharedIndexLen(), IndexCacheCapacity(); got != want {
		t.Errorf("cache holds %d entries, want %d", got, want)
	}
}

// Concurrent first callers for the SAME geometry must coalesce into one
// singleflight build: exactly one miss, everyone else hits (possibly after
// blocking on the in-flight build), and all callers get the same index.
func TestSharedNeighborIndexSingleflight(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

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
			ix, err := sharedNeighborIndex(train, valid, 1)
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
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	hits := obs.Default().Counter("importance_neighbor_index_hits_total").Value()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (build ran more than once)", misses)
	}
	if hits != callers-1 {
		t.Errorf("hits = %d, want %d", hits, callers-1)
	}
}

// Concurrent builds for DIFFERENT geometries must not serialize behind one
// global lock held across the build: under churn from many goroutines the
// cache stays within capacity + in-flight builds at every observation
// point (in-flight entries are never evicted, so concurrent distinct
// builds may transiently overflow the bound), trims back to the capacity
// once the churn settles, and every evicted slot is accounted for in the
// eviction counter.
func TestSharedNeighborIndexChurnBounded(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	const datasets = 10
	trains := make([]*ml.Dataset, datasets)
	valids := make([]*ml.Dataset, datasets)
	for i := range trains {
		trains[i] = blobs(30, 1.5, int64(950+i))
		valids[i] = blobs(15, 1.5, int64(970+i))
	}
	const goroutines = 6
	const iters = 8
	bound := IndexCacheCapacity() + goroutines
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				d := (g*iters + it) % datasets
				if _, err := sharedNeighborIndex(trains[d], valids[d], 1); err != nil {
					t.Error(err)
					return
				}
				if nc := ml.SharedIndexLen(); nc > bound {
					t.Errorf("cache grew past bound: %d entries, max %d + %d in flight", nc, IndexCacheCapacity(), goroutines)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if nc, want := ml.SharedIndexLen(), IndexCacheCapacity(); nc != want {
		t.Errorf("final cache size %d, want %d", nc, want)
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	evictions := obs.Default().Counter("importance_neighbor_index_evictions_total").Value()
	if misses < datasets {
		t.Errorf("misses = %d, want >= %d distinct geometries", misses, datasets)
	}
	if evictions != misses-int64(IndexCacheCapacity()) {
		t.Errorf("evictions = %d, want misses-cap = %d", evictions, misses-int64(IndexCacheCapacity()))
	}
}

// The FIFO capacity is configurable; the obs eviction counter must track
// exactly the configured cap, and shrinking evicts immediately.
func TestIndexCacheCapacityConfigurable(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	prev, err := SetIndexCacheCapacity(2)
	if err != nil {
		t.Fatal(err)
	}
	defer SetIndexCacheCapacity(prev)
	if got := IndexCacheCapacity(); got != 2 {
		t.Fatalf("capacity = %d, want 2", got)
	}

	const builds = 5
	for i := 0; i < builds; i++ {
		train := blobs(15, 1.5, int64(1400+i))
		valid := blobs(8, 1.5, int64(1500+i))
		if _, err := sharedNeighborIndex(train, valid, 1); err != nil {
			t.Fatal(err)
		}
	}
	evictions := obs.Default().Counter("importance_neighbor_index_evictions_total").Value()
	if want := int64(builds - 2); evictions != want {
		t.Errorf("evictions = %d, want builds-cap = %d", evictions, want)
	}
	if nc := ml.SharedIndexLen(); nc != 2 {
		t.Errorf("cache holds %d entries, want the configured cap 2", nc)
	}

	// shrinking below the current population evicts immediately
	if _, err := SetIndexCacheCapacity(1); err != nil {
		t.Fatal(err)
	}
	if nc := ml.SharedIndexLen(); nc != 1 {
		t.Errorf("after shrink: %d entries, want 1", nc)
	}
	if got := obs.Default().Counter("importance_neighbor_index_evictions_total").Value(); got != evictions+1 {
		t.Errorf("shrink evictions = %d, want %d", got, evictions+1)
	}
	for _, bad := range []int{0, -3} {
		got, err := SetIndexCacheCapacity(bad)
		if !errors.Is(err, nderr.ErrDegenerateInput) {
			t.Errorf("SetIndexCacheCapacity(%d) err = %v, want ErrDegenerateInput", bad, err)
		}
		if got != 1 {
			t.Errorf("SetIndexCacheCapacity(%d) reports capacity %d, want unchanged 1", bad, got)
		}
	}
	if got := IndexCacheCapacity(); got != 1 {
		t.Errorf("capacity = %d, want unchanged 1", got)
	}
}
