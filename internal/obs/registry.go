package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta (negative deltas are ignored).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the current value.
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets is the default histogram bucketing (seconds-oriented, like
// Prometheus' client default).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// LinearBuckets returns count buckets starting at start, each width apart.
func LinearBuckets(start, width float64, count int) []float64 {
	b := make([]float64, count)
	for i := range b {
		b[i] = start + float64(float64(i)*width)
	}
	return b
}

// ExpBuckets returns count buckets starting at start, each factor× the
// previous.
func ExpBuckets(start, factor float64, count int) []float64 {
	b := make([]float64, count)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Histogram is a fixed-bucket histogram. Observations are lock-free
// atomic increments.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	cp := append([]float64(nil), bounds...)
	sort.Float64s(cp)
	return &Histogram{bounds: cp, buckets: make([]atomic.Int64, len(cp)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Cumulative returns the cumulative count per bucket, one entry per bound
// plus a final entry for +Inf.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.buckets))
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Registry is a thread-safe collection of named metrics. Metric handles
// are get-or-create: concurrent callers asking for the same name share one
// metric.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Reset drops every metric.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	name = Sanitize(name)
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	name = Sanitize(name)
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (DefBuckets when nil) if needed. Bounds of an existing
// histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	name = Sanitize(name)
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Sanitize maps an arbitrary string to a valid Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*. Invalid runes become '_'.
func Sanitize(name string) string {
	ok := true
	for i, r := range name {
		if !validNameRune(r, i == 0) {
			ok = false
			break
		}
	}
	if ok && name != "" {
		return name
	}
	var b strings.Builder
	for i, r := range name {
		if validNameRune(r, i == 0) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func validNameRune(r rune, first bool) bool {
	if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':' {
		return true
	}
	return !first && r >= '0' && r <= '9'
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in Prometheus text exposition format
// (version 0.0.4), with metric families sorted by name for deterministic
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range sortedKeys(r.counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(r.gauges[name].Value())); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := h.Cumulative()
		for i, bound := range h.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(h.Sum()), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// histJSON is the JSON shape of one histogram.
type histJSON struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Bounds  []float64
	Buckets []int64
}

// MarshalJSON emits bounds/cumulative-bucket pairs.
func (h histJSON) MarshalJSON() ([]byte, error) {
	type pair struct {
		LE    float64 `json:"le"`
		Count int64   `json:"count"`
	}
	pairs := make([]pair, 0, len(h.Bounds)+1)
	for i, b := range h.Bounds {
		pairs = append(pairs, pair{LE: b, Count: h.Buckets[i]})
	}
	pairs = append(pairs, pair{LE: math.Inf(1), Count: h.Buckets[len(h.Buckets)-1]})
	// math.Inf is not JSON-encodable; emit the final bucket via MaxFloat64
	pairs[len(pairs)-1].LE = math.MaxFloat64
	return json.Marshal(struct {
		Count   int64   `json:"count"`
		Sum     float64 `json:"sum"`
		Buckets []pair  `json:"buckets"`
	}{h.Count, h.Sum, pairs})
}

// WriteJSON writes every metric as a single JSON object with "counters",
// "gauges" and "histograms" sections.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]histJSON, len(r.hists))
	for name, h := range r.hists {
		hists[name] = histJSON{Count: h.Count(), Sum: h.Sum(), Bounds: h.bounds, Buckets: h.Cumulative()}
	}
	r.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Counters   map[string]int64    `json:"counters"`
		Gauges     map[string]float64  `json:"gauges"`
		Histograms map[string]histJSON `json:"histograms"`
	}{counters, gauges, hists})
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
