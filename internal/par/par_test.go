package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nde/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("auto workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative workers = %d, want GOMAXPROCS", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Errorf("oversubscribed workers = %d, want 3", got)
	}
	if got := Workers(8, 0); got != 1 {
		t.Errorf("zero-item workers = %d, want 1", got)
	}
}

func TestForVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 100} {
		const n = 253
		var visits [n]int32
		st := For("test", workers, n, func(_, i int) {
			atomic.AddInt32(&visits[i], 1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, v)
			}
		}
		if st.Items != n {
			t.Errorf("items = %d, want %d", st.Items, n)
		}
		total := 0
		for _, c := range st.PerWorker {
			total += c
		}
		if total != n {
			t.Errorf("per-worker sum = %d, want %d", total, n)
		}
		if st.Wall <= 0 {
			t.Errorf("wall = %v, want > 0", st.Wall)
		}
	}
}

func TestForBlocksCoversRangeExactly(t *testing.T) {
	prop := func(seed int64) bool {
		items := int(seed%97 + 1)
		if items < 0 {
			items = -items + 1
		}
		block := int(seed%13) + 1
		if block < 1 {
			block = 1
		}
		workers := int(seed%5) + 1
		if workers < 1 {
			workers = 1
		}
		var visits = make([]int32, items)
		ForBlocks("test_blocks", workers, items, block, func(_, lo, hi int) {
			if hi-lo > block || lo < 0 || hi > items || lo >= hi {
				t.Fatalf("bad block [%d,%d) for block size %d", lo, hi, block)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for _, v := range visits {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForZeroItems(t *testing.T) {
	called := false
	st := For("empty", 4, 0, func(_, _ int) { called = true })
	if called {
		t.Error("body called for zero items")
	}
	if st.Workers != 1 || st.Items != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// Deterministic per-item outputs reduced serially must be identical for
// every worker count — the pool's core contract.
func TestForDeterministicReduction(t *testing.T) {
	const n = 500
	ref := make([]float64, n)
	For("det_ref", 1, n, func(_, i int) {
		ref[i] = float64(i) * 1.000000001
	})
	refSum := 0.0
	for _, v := range ref {
		refSum += v
	}
	for _, workers := range []int{2, 3, 16} {
		out := make([]float64, n)
		For("det", workers, n, func(_, i int) {
			out[i] = float64(i) * 1.000000001
		})
		sum := 0.0
		for _, v := range out {
			sum += v
		}
		if sum != refSum {
			t.Errorf("workers=%d: sum %v != %v", workers, sum, refSum)
		}
	}
}

// With obs enabled the pool exports the worker gauge and the per-worker
// utilization histogram.
func TestForObsWiring(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	st := For("obs_loop", 2, 10, func(_, _ int) {})
	if got := obs.Default().Gauge("par_workers").Value(); got != float64(st.Workers) {
		t.Errorf("par_workers gauge = %v, want %d", got, st.Workers)
	}
	h := obs.Default().Histogram("par_items_per_worker", nil)
	if got := h.Count(); got != int64(st.Workers) {
		t.Errorf("histogram count = %d, want %d", got, st.Workers)
	}
	if got := h.Sum(); got != 10 {
		t.Errorf("histogram sum = %v, want 10", got)
	}
}

// With obs disabled, For must not allocate beyond its own small constant
// Stats bookkeeping — in particular, none of the span/gauge/histogram
// instrumentation may allocate while obs is off.
func TestForObsOffAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		For("alloc_probe", 1, 8, func(_, _ int) {})
	})
	if allocs > 3 {
		t.Errorf("obs-off For allocates %v objects per run, want <= 3", allocs)
	}
	// on two workers: 6 objects with one closure per goroutine; a worker
	// index passed as an argument would add a wrapper closure per
	// goroutine, and a captured variable that the loop reassigns would add
	// its heap cell
	allocs = testing.AllocsPerRun(100, func() {
		For("alloc_probe", 2, 8, func(_, _ int) {})
	})
	if allocs > 7 {
		t.Errorf("obs-off For on 2 workers allocates %v objects per run, want <= 7", allocs)
	}
}

// ForErr must return the first failing item's error IN ITEM ORDER for any
// worker count, while still visiting every item.
func TestForErrDeterministicFirstError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		visited := make([]int32, 20)
		_, err := ForErr("errprobe", workers, 20, func(_, i int) error {
			atomic.AddInt32(&visited[i], 1)
			if i == 7 || i == 13 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Errorf("workers=%d: err = %v, want item 7's error", workers, err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Errorf("workers=%d: item %d visited %d times", workers, i, v)
			}
		}
	}
	if _, err := ForErr("ok", 2, 5, func(_, _ int) error { return nil }); err != nil {
		t.Errorf("no-error loop returned %v", err)
	}
}
