package obs

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTracer()
	tr.CaptureAllocs(false)
	root := tr.StartSpan("root", Attr{Key: "phase", Val: "run"})
	c1 := tr.StartSpan("child1")
	g := tr.StartSpan("grandchild")
	g.SetRows(10, 5)
	g.End()
	c1.End()
	c2 := tr.StartSpan("child2", Attr{Key: "n", Val: "7"})
	c2.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "root" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "child1" || kids[1].Name() != "child2" {
		t.Fatalf("children of root wrong: %v", kids)
	}
	gk := kids[0].Children()
	if len(gk) != 1 || gk[0].Name() != "grandchild" {
		t.Fatalf("grandchild missing: %v", gk)
	}
	if v, ok := gk[0].Attr("rows_out"); !ok || v != "5" {
		t.Errorf("rows_out attr = %q, %v", v, ok)
	}

	out := tr.Render()
	lines := strings.Split(out, "\n")
	if len(lines) != 4 {
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "root ") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  child1 ") {
		t.Errorf("line 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    grandchild ") || !strings.Contains(lines[2], "rows_in=10 rows_out=5") {
		t.Errorf("line 2 = %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "  child2 ") || !strings.Contains(lines[3], "n=7") {
		t.Errorf("line 3 = %q", lines[3])
	}
}

// The allocation columns hold the contract Span documents: large
// objects count exactly, and small ones up to one runtime span's worth
// per size class per P.
func TestSpanRecordsDurationAndAllocs(t *testing.T) {
	const (
		large, largeSize = 16, 64 << 10 // past the 32 KiB small-object limit
		small, smallSize = 4096, 64
		perSpan          = 8192 / smallSize // 64-byte objects in one 8 KiB runtime span
	)
	tr := NewTracer()
	s := tr.StartSpan("work")
	sink := make([][]byte, 0, large+small)
	for i := 0; i < large; i++ {
		sink = append(sink, make([]byte, largeSize))
	}
	for i := 0; i < small; i++ {
		sink = append(sink, make([]byte, smallSize))
	}
	time.Sleep(time.Millisecond)
	s.End()
	runtime.KeepAlive(sink)
	if s.wall < time.Millisecond {
		t.Errorf("duration = %v, want >= 1ms", s.wall)
	}
	// large objects count exactly; the small ones may lack one runtime
	// span's worth per P
	smallSeen := uint64(max(small-perSpan*runtime.GOMAXPROCS(0), 0))
	if want := large + smallSeen; s.allocs < want {
		t.Errorf("allocs = %d, want >= %d", s.allocs, want)
	}
	if want := large*largeSize + smallSeen*smallSize; s.bytes < want {
		t.Errorf("bytes = %d, want >= %d", s.bytes, want)
	}
}

// A capture reads runtime/metrics into the tracer's own buffer: a span
// with capture on allocates what one without it does, and the read
// itself nothing.
func TestSpanCaptureAllocatesNothing(t *testing.T) {
	spans := func(capture bool) float64 {
		tr := NewTracer()
		tr.CaptureAllocs(capture)
		root := tr.StartSpan("root")
		defer root.End()
		return testing.AllocsPerRun(1000, func() {
			tr.StartSpan("child").End()
		})
	}
	if on, off := spans(true), spans(false); on != off {
		t.Errorf("StartSpan+End allocates %v objects with capture on, %v with it off", on, off)
	}
	tr := NewTracer()
	if n := testing.AllocsPerRun(1000, func() {
		tr.mu.Lock()
		tr.heapAllocsLocked()
		tr.mu.Unlock()
	}); n != 0 {
		t.Errorf("a capture allocates %v objects, want 0", n)
	}
}

func TestSpanOpenRender(t *testing.T) {
	tr := NewTracer()
	tr.CaptureAllocs(false)
	tr.StartSpan("never_ended")
	if out := tr.Render(); !strings.Contains(out, "never_ended (open)") {
		t.Errorf("open span not marked: %q", out)
	}
}

// The no-op contract: with observability disabled, the full instrumented
// call pattern — span start/annotate/end, counters, gauges, histograms,
// progress — performs zero heap allocations.
func TestNoopModeZeroAllocations(t *testing.T) {
	Disable()
	Reset()
	allocs := testing.AllocsPerRun(200, func() {
		sp := StartSpan("pipeline.op")
		sp.SetStr("kind", "Filter").SetInt("node", 3).SetRows(100, 40)
		Inc("pipeline_memo_hits_total")
		Count("rows_total", 40)
		SetGauge("workers", 8)
		ObserveWith("latency_seconds", 0.1, nil)
		ObserveWith("batch_size", 12, nil)
		p := NewProgress("loop", 100)
		p.Tick(1)
		p.Done()
		_ = p.Snapshot()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("no-op instrumentation allocated %v objects per run, want 0", allocs)
	}
}

func TestProgressSnapshotAndMetrics(t *testing.T) {
	Enable()
	defer Disable()
	defer Reset()
	Reset()
	p := NewProgress("clean loop", 10) // name gets sanitized
	p.Tick(3)
	p.Tick(1)
	s := p.Snapshot()
	if s.Done != 4 || s.Total != 10 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Rate <= 0 {
		t.Errorf("rate = %v, want > 0", s.Rate)
	}
	if s.ETA <= 0 {
		t.Errorf("eta = %v, want > 0", s.ETA)
	}
	if str := s.String(); !strings.Contains(str, "4/10") {
		t.Errorf("snapshot string = %q", str)
	}
	if got := Default().Gauge("progress_clean_loop_done").Value(); got != 4 {
		t.Errorf("done gauge = %v, want 4", got)
	}
	if got := Default().Gauge("progress_clean_loop_total").Value(); got != 10 {
		t.Errorf("total gauge = %v, want 10", got)
	}
	p.Done()
	if got := Default().Histogram("progress_clean_loop_seconds", nil).Count(); got != 1 {
		t.Errorf("seconds histogram count = %d, want 1", got)
	}
}

func TestDumpFiles(t *testing.T) {
	Enable()
	defer Disable()
	defer Reset()
	Reset()
	Inc("dump_runs_total")
	sp := StartSpan("dump_root")
	sp.SetRows(3, 2)
	sp.End()

	dir := t.TempDir()
	prom := dir + "/m.prom"
	jsonPath := dir + "/m.json"
	trace := dir + "/t.txt"
	if err := DumpFiles(prom, trace); err != nil {
		t.Fatal(err)
	}
	if err := DumpFiles(jsonPath, ""); err != nil {
		t.Fatal(err)
	}
	mustContain(t, prom, "# TYPE dump_runs_total counter")
	mustContain(t, prom, "dump_runs_total 1")
	mustContain(t, jsonPath, `"dump_runs_total": 1`)
	mustContain(t, trace, "dump_root")
	mustContain(t, trace, "rows_out=2")
}

func mustContain(t *testing.T, path, needle string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if !strings.Contains(string(data), needle) {
		t.Errorf("%s does not contain %q:\n%s", path, needle, data)
	}
}

// StartChild must attach children to an explicit parent from concurrent
// goroutines without corrupting the tree or racing (run under -race).
func TestSpanStartChildConcurrent(t *testing.T) {
	tr := NewTracer()
	tr.CaptureAllocs(false)
	root := tr.StartSpan("parallel_loop")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := root.StartChild("item", Attr{Key: "worker", Val: strconv.Itoa(w)})
			c.SetInt("n", 1)
			c.End()
		}(w)
	}
	wg.Wait()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	kids := roots[0].Children()
	if len(kids) != workers {
		t.Fatalf("children = %d, want %d", len(kids), workers)
	}
	for _, c := range kids {
		if c.Name() != "item" {
			t.Errorf("child name = %q", c.Name())
		}
		if !c.ended {
			t.Error("child not ended")
		}
		if c.allocs != 0 {
			t.Errorf("child alloc delta = %d, want 0 (capture skipped for concurrent children)", c.allocs)
		}
	}
	// the implicit stack must be untouched by StartChild: a new span is a root
	next := tr.StartSpan("after")
	next.End()
	if got := len(tr.Roots()); got != 2 {
		t.Errorf("roots after = %d, want 2", got)
	}
}

// The no-op span's StartChild stays no-op and allocation-free.
func TestStartChildNoop(t *testing.T) {
	Disable()
	sp := StartSpan("off")
	allocs := testing.AllocsPerRun(100, func() {
		c := sp.StartChild("child")
		c.End()
	})
	if allocs != 0 {
		t.Errorf("StartChild allocated %v times while disabled", allocs)
	}
}

// AddGauge accumulates deltas (the in-flight pattern) and is disabled-safe.
func TestAddGauge(t *testing.T) {
	Disable()
	AddGauge("inflight_test", 5) // must not touch the registry
	Enable()
	defer Disable()
	defer Reset()
	Reset()
	AddGauge("inflight_test", 2)
	AddGauge("inflight_test", 1)
	AddGauge("inflight_test", -3)
	if got := Default().Gauge("inflight_test").Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
}

// ProgressSnapshot is a point-in-time view of a Progress.
type ProgressSnapshot struct {
	Name    string
	Done    int64
	Total   int64
	Elapsed time.Duration
	Rate    float64       // units per second
	ETA     time.Duration // zero when the rate is unknown or the loop is done
}

// Snapshot returns the current state, its total read from the
// progress_<name>_total gauge. The no-op progress returns a zero
// snapshot.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p.reg == nil {
		return ProgressSnapshot{}
	}
	done := p.done.Load()
	total := int64(p.reg.Gauge("progress_" + p.name + "_total").Value())
	elapsed := time.Since(p.start)
	s := ProgressSnapshot{Name: p.name, Done: done, Total: total, Elapsed: elapsed}
	if elapsed > 0 {
		s.Rate = float64(done) / elapsed.Seconds()
	}
	if s.Rate > 0 && done < total {
		s.ETA = time.Duration(float64(total-done) / s.Rate * float64(time.Second))
	}
	return s
}

// String renders the snapshot as "name 30/100 (12.3/s, ETA 5.7s)".
func (s ProgressSnapshot) String() string {
	if s.Total <= 0 {
		return fmt.Sprintf("%s %d (%.1f/s)", s.Name, s.Done, s.Rate)
	}
	return fmt.Sprintf("%s %d/%d (%.1f/s, ETA %s)", s.Name, s.Done, s.Total, s.Rate, s.ETA.Round(time.Millisecond))
}
