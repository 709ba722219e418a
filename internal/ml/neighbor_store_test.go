package ml

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"nde/internal/obs"
)

// waitCounter spins until the named counter reaches want, failing the
// test after a generous deadline.
func waitCounter(t *testing.T, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for obs.Default().Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d", name, want)
		}
		runtime.Gosched()
	}
}

// REGRESSION for the in-flight eviction bug: under the old FIFO cache,
// inserting geometries past the bound evicted the *in-flight* head entry,
// detaching the key from its running build — so any same-key caller
// arriving afterwards silently started a duplicate build of the same
// geometry. The store must never evict an in-flight entry: concurrent
// same-key callers during churn coalesce into exactly one build (one miss
// for the churned geometry plus one per distinct churn geometry, no more).
//
// A's build is held in flight on a channel the test releases, so the
// churn always runs around an in-flight A however fast the build is.
func TestSharedNeighborIndexInFlightSurvivesChurn(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	st := NewIndexStore()

	trainA := blobs(60, 1.5, 2001)
	validA := blobs(30, 1.5, 2002)

	// the wave's first caller builds A through the store and blocks until
	// released; the rest of the wave joins its flight
	built := make(chan struct{})
	release := make(chan struct{})
	releaseA := sync.OnceFunc(func() { close(release) })
	defer releaseA() // a failed wait must not strand the held flight
	const wave = 6
	indexes := make([]*NeighborIndex, wave)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ix, err := st.s.GetOrBuild(KeyOf(trainA, validA), func() (*NeighborIndex, error) {
			close(built)
			<-release
			return NewNeighborIndex(trainA, validA, 1)
		})
		if err != nil {
			t.Error(err)
			return
		}
		indexes[0] = ix
	}()
	<-built
	lookupA := func(out []*NeighborIndex, c int) {
		defer wg.Done()
		ix, err := st.Index(KeyOf(trainA, validA), trainA, validA, 1)
		if err != nil {
			t.Error(err)
			return
		}
		out[c] = ix
	}
	for c := 1; c < wave; c++ {
		wg.Add(1)
		go lookupA(indexes, c)
	}
	waitCounter(t, "importance_neighbor_index_waits_total", wave-1)

	// churn while A is in flight: fill the store with as many other
	// geometries as it holds, one more than fits beside A, which under
	// the old FIFO evicted in-flight A
	for i := 0; i < indexStoreCapacity; i++ {
		train := blobs(10, 1.5, int64(2003+2*i))
		valid := blobs(5, 1.5, int64(2004+2*i))
		if _, err := st.Index(KeyOf(train, valid), train, valid, 1); err != nil {
			t.Fatal(err)
		}
	}
	// stragglers arrive strictly after the churn: the first joins A's
	// flight, the second hits its stored entry once the flight is over;
	// neither may rebuild
	stragglers := make([]*NeighborIndex, 2)
	wg.Add(1)
	go lookupA(stragglers, 0)
	waitCounter(t, "importance_neighbor_index_waits_total", wave)
	releaseA()
	wg.Wait()
	wg.Add(1)
	lookupA(stragglers, 1)

	for c := 1; c < wave; c++ {
		if indexes[c] != indexes[0] {
			t.Fatalf("caller %d got a different index instance", c)
		}
	}
	for c, ix := range stragglers {
		if ix != indexes[0] {
			t.Fatalf("straggler %d got a different index instance: geometry A was rebuilt", c)
		}
	}
	if ev := obs.Default().Counter("importance_neighbor_index_evictions_total").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1 (the churn crossed the bound once, never evicting A)", ev)
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	if misses != 1+indexStoreCapacity { // A once, each churn geometry once — more means A rebuilt
		t.Errorf("misses = %d, want %d (A built once, each churn geometry once)", misses, 1+indexStoreCapacity)
	}
}
