package obs

import (
	"fmt"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// Span records one timed region of work: wall time, allocation deltas
// and arbitrary attributes such as row counts.
// Spans started while another span is open on the same tracer become its
// children, mirroring the call structure of a single orchestration
// goroutine. Concurrent worker goroutines must not use StartSpan (the
// implicit current-span nesting would interleave their trees); they attach
// children to an explicit parent with Span.StartChild, which is safe for
// concurrent use, or report through metrics and Progress.
//
// The allocation columns are the process's heap allocations between
// start and end, read from runtime/metrics, so they count every
// goroutine's allocations, not only the span's own. Large objects are
// counted when allocated. Small objects are counted when a P swaps the
// span of their size class that it caches, so the columns can be off by
// up to one runtime span's worth of objects per size class per P (8 KiB
// of 64-byte objects is 128). Reading them stops no world.
type Span struct {
	tracer *Tracer // nil for the shared no-op span
	name   string
	attrs  []Attr
	parent *Span

	start       time.Time
	wall        time.Duration
	startAllocs uint64 // heap allocations, tiny ones included, at start
	startBytes  uint64 // heap bytes allocated at start
	allocs      uint64
	bytes       uint64
	ended       bool
	noAllocs    bool // StartChild spans: alloc deltas are not captured

	children []*Span
}

var noopSpan = &Span{}

// StartSpan begins a span on the default tracer. While observability is
// disabled it returns a shared no-op span and performs no allocation.
func StartSpan(name string, attrs ...Attr) *Span {
	if !Enabled() {
		return noopSpan
	}
	return defaultTracer.StartSpan(name, attrs...)
}

// StartChild begins a span as an explicit child of s, without consulting
// or updating the tracer's implicit current-span stack. Unlike StartSpan it
// is safe to call from concurrent worker goroutines (each worker annotates
// and ends only its own child), so parallel loops can attach per-item spans
// under the loop's span. Children appear in creation order, which under
// concurrency is scheduling order, not item order. Allocation-delta capture
// is skipped for such spans: overlapping concurrent work would make the
// process-wide deltas meaningless. No-op (and allocation-free) on
// the no-op span.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s.tracer == nil {
		return noopSpan
	}
	c := &Span{tracer: s.tracer, name: name, attrs: attrs, parent: s, noAllocs: true}
	s.tracer.mu.Lock()
	s.children = append(s.children, c)
	c.start = time.Now()
	s.tracer.mu.Unlock()
	return c
}

// SetStr attaches a string attribute; chainable. No-op on the no-op span.
func (s *Span) SetStr(key, val string) *Span {
	if s.tracer == nil {
		return s
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.tracer.mu.Unlock()
	return s
}

// SetInt attaches an integer attribute; chainable. No-op on the no-op
// span.
func (s *Span) SetInt(key string, val int64) *Span {
	if s.tracer == nil {
		return s
	}
	v := strconv.FormatInt(val, 10)
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
	s.tracer.mu.Unlock()
	return s
}

// SetRows attaches the conventional rows_in/rows_out attributes.
func (s *Span) SetRows(in, out int) *Span {
	return s.SetInt("rows_in", int64(in)).SetInt("rows_out", int64(out))
}

// End closes the span, recording wall time and allocation deltas. The
// completion fields are written under the tracer lock so a live exporter
// (the ops plane's /trace endpoint) can walk the tree mid-run without
// racing. Spans whose duration exceeds the configured slow-span threshold
// additionally emit a warning record into the active run ledger.
func (s *Span) End() {
	if s.tracer == nil || s.ended {
		return
	}
	wall := time.Since(s.start)
	t := s.tracer
	t.mu.Lock()
	if !s.noAllocs && t.captureAllocs {
		allocs, bytes := t.heapAllocsLocked()
		s.allocs, s.bytes = allocs-s.startAllocs, bytes-s.startBytes
	}
	s.wall = wall
	s.ended = true
	if t.cur == s {
		t.cur = s.parent
	}
	t.mu.Unlock()
	maybeRecordSlowSpan(s.name, wall)
}

// Name returns the span name ("" for the no-op span).
func (s *Span) Name() string { return s.name }

// Children returns the nested spans in start order.
func (s *Span) Children() []*Span { return s.children }

// Attr returns the value of the named attribute and whether it was set.
func (s *Span) Attr(key string) (string, bool) {
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Tracer collects spans into trees. The zero value is not usable; call
// NewTracer.
type Tracer struct {
	mu            sync.Mutex
	roots         []*Span
	cur           *Span
	captureAllocs bool
	// samples is the runtime/metrics buffer a capture reads into under
	// mu; held here, so a capture allocates nothing.
	samples [3]metrics.Sample
}

// NewTracer returns an empty tracer with allocation capture on.
func NewTracer() *Tracer {
	t := &Tracer{captureAllocs: true}
	t.samples[0].Name = "/gc/heap/allocs:objects"
	t.samples[1].Name = "/gc/heap/tiny/allocs:objects"
	t.samples[2].Name = "/gc/heap/allocs:bytes"
	return t
}

// heapAllocsLocked returns the process's heap allocations so far, tiny
// ones included, and their bytes. t.mu must be held.
func (t *Tracer) heapAllocsLocked() (allocs, bytes uint64) {
	metrics.Read(t.samples[:])
	return t.samples[0].Value.Uint64() + t.samples[1].Value.Uint64(), t.samples[2].Value.Uint64()
}

// CaptureAllocs toggles the allocation columns of spans started with
// StartSpan (on by default). A capture reads runtime/metrics twice per
// span, stops no world and allocates nothing; the columns are as
// precise as Span describes. Turning it off saves those reads.
func (t *Tracer) CaptureAllocs(on bool) {
	t.mu.Lock()
	t.captureAllocs = on
	t.mu.Unlock()
}

// StartSpan begins a span as a child of the innermost open span (or as a
// new root). The span is published into the tree with its start time set
// under the tracer lock, so concurrent exporters never observe a
// half-initialized span.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	s := &Span{tracer: t, name: name, attrs: attrs}
	t.mu.Lock()
	if t.captureAllocs {
		s.startAllocs, s.startBytes = t.heapAllocsLocked()
	}
	s.parent = t.cur
	if s.parent != nil {
		s.parent.children = append(s.parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.cur = s
	s.start = time.Now()
	t.mu.Unlock()
	return s
}

// Roots returns the completed and open root spans in start order.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Reset drops all collected spans.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.roots = nil
	t.cur = nil
	t.mu.Unlock()
}

// Render returns the span forest as a flame-style indented trace: one line
// per span with wall time, allocation deltas and attributes, children
// indented under their parent. The walk happens under the tracer lock so
// it is safe while spans are still being opened and closed.
func (t *Tracer) Render() string {
	var b strings.Builder
	t.mu.Lock()
	for _, root := range t.roots {
		renderSpan(&b, root, 0)
	}
	t.mu.Unlock()
	return strings.TrimRight(b.String(), "\n")
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.name)
	if s.ended {
		fmt.Fprintf(b, " %s", s.wall.Round(time.Microsecond))
		if s.allocs > 0 || s.bytes > 0 {
			fmt.Fprintf(b, " allocs=%d bytes=%d", s.allocs, s.bytes)
		}
	} else {
		b.WriteString(" (open)")
	}
	for _, a := range s.attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Val)
	}
	b.WriteByte('\n')
	for _, c := range s.children {
		renderSpan(b, c, depth+1)
	}
}
