package store

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nde/internal/obs"
)

// counters samples the store's obs counters.
func counters(t *testing.T, name string) (hits, misses, waits, evictions int64) {
	t.Helper()
	r := obs.Default()
	return r.Counter(name + "_hits_total").Value(),
		r.Counter(name + "_misses_total").Value(),
		r.Counter(name + "_waits_total").Value(),
		r.Counter(name + "_evictions_total").Value()
}

// waitInflight spins (yielding) until at least n builds are in flight.
func waitInflight[K comparable, V any](t *testing.T, s *Store[K, V], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d in-flight builds", n)
		}
		runtime.Gosched()
	}
}

// waitCounter spins (yielding) until the named obs counter reaches n.
func waitCounter(t *testing.T, name string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for obs.Default().Counter(name).Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s to reach %d", name, n)
		}
		runtime.Gosched()
	}
}

// has reports whether key holds an entry, ready or in flight, without
// touching its recency.
func has[K comparable, V any](s *Store[K, V], key K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

func withObs(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
}

// Concurrent callers for the same key must coalesce into one build; later
// arrivals block and are counted as waits, and everyone gets the same value.
func TestSingleflightSameKey(t *testing.T) {
	withObs(t)
	s := New[string, int]("st_sf", 4)

	var builds atomic.Int64
	release := make(chan struct{})
	const callers = 8
	got := make([]int, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v, err := s.GetOrBuild("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[c] = v
		}(c)
	}
	// let every caller reach the store before the build can finish: one
	// build is in flight and each other caller has counted its wait,
	// which it does before blocking on the flight
	waitInflight(t, s, 1)
	waitCounter(t, "st_sf_waits_total", callers-1)
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	for c, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", c, v)
		}
	}
	hits, misses, waits, _ := counters(t, "st_sf")
	if misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if hits != callers-1 {
		t.Errorf("hits = %d, want %d", hits, callers-1)
	}
	if waits == 0 {
		t.Error("waits = 0, want > 0 (callers should have blocked on the flight)")
	}
}

// REGRESSION (the PR 4 FIFO bug): an in-flight entry must never be evicted.
// With capacity 1, churn from other keys while key A's build is blocked
// must not detach A; a late same-key caller joins the original flight
// instead of starting a duplicate build.
func TestInFlightEntrySurvivesChurn(t *testing.T) {
	withObs(t)
	s := New[string, int]("st_churn", 1)

	var buildsA atomic.Int64
	releaseA := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		v, err := s.GetOrBuild("A", func() (int, error) {
			buildsA.Add(1)
			<-releaseA
			return 1, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	waitInflight(t, s, 1)

	// churn: ready builds for other keys, far past the capacity
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("other-%d", i)
		if _, err := s.GetOrBuild(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// a same-key caller during churn must join A's flight, not rebuild
	joined := make(chan int, 1)
	go func() {
		v, err := s.GetOrBuild("A", func() (int, error) {
			buildsA.Add(1)
			return -1, nil
		})
		if err != nil {
			t.Error(err)
		}
		joined <- v
	}()
	_, _, _, evictionsBefore := counters(t, "st_churn")
	close(releaseA)
	if v := <-done; v != 1 {
		t.Errorf("first caller got %d, want 1", v)
	}
	if v := <-joined; v != 1 {
		t.Errorf("joining caller got %d, want 1 from the shared flight", v)
	}
	if n := buildsA.Load(); n != 1 {
		t.Errorf("key A built %d times, want 1 (in-flight entry was evicted)", n)
	}
	if evictionsBefore == 0 {
		t.Error("churn produced no evictions; the test did not stress the bound")
	}
	// once A's build completed the store must trim back to its capacity
	if n := s.Len(); n != 1 {
		t.Errorf("len = %d after trim, want capacity 1", n)
	}
}

// While every entry is in flight the store may exceed its capacity, but
// only by the number of in-flight builds, and it trims as they complete.
func TestOverflowBoundedByInflight(t *testing.T) {
	s := New[int, int]("st_over", 2)
	const flights = 5
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < flights; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = s.GetOrBuild(i, func() (int, error) {
				<-release
				return i, nil
			})
		}(i)
	}
	waitInflight(t, s, flights)
	if n := s.Len(); n != flights {
		t.Errorf("len = %d with %d in-flight builds, want %d", n, flights, flights)
	}
	close(release)
	wg.Wait()
	if n := s.Len(); n != 2 {
		t.Errorf("len = %d after builds completed, want capacity 2", n)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("inflight = %d, want 0", n)
	}
}

// Eviction is least-recently-USED, not insertion order: touching an old
// entry keeps it alive past younger untouched ones.
func TestLRURecency(t *testing.T) {
	s := New[string, int]("st_lru", 2)
	build := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	if _, err := s.GetOrBuild("a", build(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrBuild("b", build(2)); err != nil {
		t.Fatal(err)
	}
	// touch a so b becomes the LRU victim
	if _, err := s.GetOrBuild("a", build(-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrBuild("c", build(3)); err != nil {
		t.Fatal(err)
	}
	if !has(s, "a") {
		t.Error("recently used entry a was evicted")
	}
	if has(s, "b") {
		t.Error("least recently used entry b survived eviction")
	}
}

// A failed build is delivered to every waiter and never cached; the next
// caller retries and can succeed.
func TestFailedBuildNotCached(t *testing.T) {
	s := New[string, int]("st_fail", 4)
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = s.GetOrBuild("k", func() (int, error) {
			<-release
			return 0, boom
		})
	}()
	waitInflight(t, s, 1)
	for c := 1; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = s.GetOrBuild("k", func() (int, error) { return 0, boom })
		}(c)
	}
	close(release)
	wg.Wait()
	for c, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: err = %v, want boom", c, err)
		}
	}
	if n := s.Len(); n != 0 {
		t.Errorf("len = %d after failed build, want 0 (errors are not cached)", n)
	}
	v, err := s.GetOrBuild("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("retry after failure: v=%d err=%v, want 7, nil", v, err)
	}
}

// Reset drops everything but in-flight waiters still get their artifact.
func TestResetDuringFlight(t *testing.T) {
	s := New[string, int]("st_reset", 4)
	release := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		v, err := s.GetOrBuild("k", func() (int, error) {
			<-release
			return 9, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	waitInflight(t, s, 1)
	s.Reset()
	close(release)
	if v := <-done; v != 9 {
		t.Errorf("waiter got %d across Reset, want 9", v)
	}
	if has(s, "k") {
		t.Error("entry survived Reset")
	}
}

// The recency list's backing array must not retain evicted keys (the
// copy-down discipline): after heavy churn its capacity stays near the
// bound instead of growing with every insertion.
func TestOrderNoLeak(t *testing.T) {
	s := New[int, int]("st_leak", 4)
	for i := 0; i < 64; i++ {
		if _, err := s.GetOrBuild(i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) != 4 {
		t.Fatalf("order len = %d, want 4", len(s.order))
	}
	if cap(s.order) > 8 {
		t.Errorf("order cap = %d after churn: evicted keys are being retained", cap(s.order))
	}
}

// A cache hit with obs off allocates nothing: the metric names are built
// once in New, not concatenated per call.
func TestGetOrBuildHitZeroAllocWithObsOff(t *testing.T) {
	obs.Disable()
	s := New[string, int]("st_alloc", 4)
	build := func() (int, error) { return 7, nil }
	if _, err := s.GetOrBuild("k", build); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := s.GetOrBuild("k", build); err != nil || v != 7 {
			t.Fatalf("hit = (%d, %v), want (7, nil)", v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("GetOrBuild hit allocates %v times per call with obs off, want 0", allocs)
	}
}

// Len returns the current entry count (ready + in flight).
func (s *Store[K, V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// InFlight returns the number of builds currently running.
func (s *Store[K, V]) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Reset drops every entry. In-flight builds are unaffected: their waiters
// still receive the built artifact, it just is no longer cached afterwards.
func (s *Store[K, V]) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = map[K]*entry[V]{}
	s.order = nil
	s.gaugesLocked()
}
