package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// decodeChromeTrace strictly decodes an export, failing on anything
// chrome://tracing / Perfetto would reject (unknown fields, bad JSON).
func decodeChromeTrace(t *testing.T, b []byte) chromeTrace {
	t.Helper()
	var out chromeTrace
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("chrome trace does not decode: %v\n%s", err, b)
	}
	if out.TraceEvents == nil {
		t.Fatalf("traceEvents is null, want an array (possibly empty)")
	}
	for i, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %d ph = %q, want X", i, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %d has negative ts/dur: %+v", i, ev)
		}
		if ev.Pid == 0 || ev.Tid == 0 {
			t.Errorf("event %d missing pid/tid: %+v", i, ev)
		}
	}
	return out
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	tr.CaptureAllocs(false)
	root := tr.StartSpan("root", Attr{Key: "phase", Val: "run"})
	child := tr.StartSpan("child")
	child.SetRows(10, 5)
	time.Sleep(2 * time.Millisecond)
	child.End()
	leafless := tr.StartSpan("leafless") // zero children
	leafless.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := decodeChromeTrace(t, buf.Bytes())
	if len(out.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3:\n%s", len(out.TraceEvents), buf.String())
	}
	byName := map[string]chromeEvent{}
	for _, ev := range out.TraceEvents {
		byName[ev.Name] = ev
	}
	child2, ok := byName["child"]
	if !ok {
		t.Fatalf("child event missing")
	}
	if child2.Args["rows_in"] != "10" || child2.Args["rows_out"] != "5" {
		t.Errorf("child args = %v", child2.Args)
	}
	if child2.Dur < 1000 { // microseconds
		t.Errorf("child dur = %v us, want >= 1000", child2.Dur)
	}
	rootEv := byName["root"]
	if rootEv.Ts != 0 {
		t.Errorf("root ts = %v, want 0 (trace base)", rootEv.Ts)
	}
	if rootEv.Dur < child2.Dur {
		t.Errorf("root dur %v < child dur %v", rootEv.Dur, child2.Dur)
	}
	if rootEv.Tid != child2.Tid {
		t.Errorf("root and child on different tracks: %d vs %d", rootEv.Tid, child2.Tid)
	}
	if _, open := byName["leafless"].Args["open"]; open {
		t.Errorf("ended leafless span marked open")
	}
}

func TestChromeTraceAllocArgs(t *testing.T) {
	tr := NewTracer() // alloc capture on
	s := tr.StartSpan("alloc.work")
	sink := make([][]byte, 0, 256)
	for i := 0; i < 200; i++ {
		sink = append(sink, make([]byte, 64))
	}
	// small objects may stay in a P's cached runtime span, uncounted
	// (see Span); a large one counts when allocated
	sink = append(sink, make([]byte, 64<<10))
	s.End()
	_ = sink

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := decodeChromeTrace(t, buf.Bytes())
	if len(out.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1", len(out.TraceEvents))
	}
	args := out.TraceEvents[0].Args
	if args["allocs"] == "" || args["alloc_bytes"] == "" {
		t.Errorf("alloc deltas missing from args: %v", args)
	}
}

// An empty tracer — e.g. obs.Enable was never on, or was toggled after
// the run's spans — must still export a valid, loadable file.
func TestChromeTraceEmptyTracer(t *testing.T) {
	tr := NewTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := decodeChromeTrace(t, buf.Bytes())
	if len(out.TraceEvents) != 0 {
		t.Fatalf("got %d events, want 0", len(out.TraceEvents))
	}
}

// Exporting mid-run: open spans get a best-effort duration and an
// "open" arg; concurrent span churn during the export must not race
// (run under -race in check.sh).
func TestChromeTraceMidRun(t *testing.T) {
	tr := NewTracer()
	tr.CaptureAllocs(false)
	open := tr.StartSpan("still.running")
	time.Sleep(time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Cap the churn: every child stays in the tracer and each export
		// walks the whole tree, so unbounded growth makes later exports
		// quadratically slower under -race.
		for spans := 0; spans < 500; spans++ {
			select {
			case <-stop:
				return
			default:
			}
			c := open.StartChild("worker.item")
			c.SetInt("i", 1)
			c.End()
		}
	}()

	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("mid-run export: %v", err)
		}
		out := decodeChromeTrace(t, buf.Bytes())
		if len(out.TraceEvents) == 0 {
			t.Fatalf("no events in mid-run export")
		}
		if out.TraceEvents[0].Args["open"] != "true" {
			t.Errorf("open root not marked open: %+v", out.TraceEvents[0])
		}
		if out.TraceEvents[0].Dur <= 0 {
			t.Errorf("open span exported with dur %v, want > 0", out.TraceEvents[0].Dur)
		}
	}
	close(stop)
	wg.Wait()
	open.End()
}

// Sibling root spans land on distinct tids (separate tracks).
func TestChromeTraceRootTracks(t *testing.T) {
	tr := NewTracer()
	tr.CaptureAllocs(false)
	a := tr.StartSpan("a")
	a.End()
	b := tr.StartSpan("b")
	b.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := decodeChromeTrace(t, buf.Bytes())
	if len(out.TraceEvents) != 2 || out.TraceEvents[0].Tid == out.TraceEvents[1].Tid {
		t.Errorf("root spans share a track: %+v", out.TraceEvents)
	}
}

// Degenerate span shapes must export cleanly: zero-children spans (open
// and closed), and spans straddling mid-run Enable/Disable toggles of the
// package-level switch — no panics, valid JSON, sane events.
func TestChromeTraceDegenerateShapes(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Tracer
		want  int // expected event count
	}{
		{"closed leaf root", func() *Tracer {
			tr := NewTracer()
			tr.CaptureAllocs(false)
			tr.StartSpan("leaf").End()
			return tr
		}, 1},
		{"open leaf root", func() *Tracer {
			tr := NewTracer()
			tr.CaptureAllocs(false)
			tr.StartSpan("still.open")
			return tr
		}, 1},
		{"child ended after parent", func() *Tracer {
			tr := NewTracer()
			tr.CaptureAllocs(false)
			p := tr.StartSpan("parent")
			c := p.StartChild("child")
			p.End()
			c.End()
			return tr
		}, 2},
		{"double End", func() *Tracer {
			tr := NewTracer()
			tr.CaptureAllocs(false)
			s := tr.StartSpan("twice")
			s.End()
			s.End()
			return tr
		}, 1},
		{"toggle around default tracer", func() *Tracer {
			Reset()
			Enable()
			s := StartSpan("enabled.phase")
			Disable()
			s.End() // span outlives the toggle; End must still record
			n := StartSpan("disabled.phase")
			n.End() // no-op singleton, must not appear or panic
			Enable()
			StartSpan("reenabled.phase").End()
			Disable()
			return DefaultTracer()
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.build().WriteChromeTrace(&buf); err != nil {
				t.Fatalf("export: %v", err)
			}
			out := decodeChromeTrace(t, buf.Bytes())
			if len(out.TraceEvents) != c.want {
				t.Errorf("%d events, want %d", len(out.TraceEvents), c.want)
			}
		})
	}
}
