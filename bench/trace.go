package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/par"
	"nde/internal/pipeline"
	"nde/internal/prov"
	"nde/internal/serve"
)

// span is one call into a layer, timed from the benchmark's own code
// around the public function it calls.
type span struct {
	name       string
	parent     int // index into tracer.spans; -1 for a root
	op         int // op index of an "op" span; -1 otherwise
	start, end time.Duration
	bytes      uint64 // heap bytes allocated while open
}

// tracer keeps spans in memory; they are written when the run ends.
// Calls are sequential, so nesting follows a stack of open spans.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// step is one layer call: the span name and the call.
type step struct {
	name string
	fn   func() error
}

// do runs fn inside a span named after the layer call it makes.
func (t *tracer) do(name string, fn func() error) error { return t.record(name, -1, fn) }

// op runs the traced replay of op i: one span per layer call, in handler
// order, under an "op" span.
func (t *tracer) op(i int, steps ...step) error {
	return t.record("op", i, func() error { return t.calls(steps...) })
}

// calls runs the steps in order, each in its own span, and stops at the
// first error.
func (t *tracer) calls(steps ...step) error {
	for _, s := range steps {
		if err := t.do(s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) record(name string, op int, fn func() error) error {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, op: op})
	t.open = append(t.open, idx)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	bytes0 := m.TotalAlloc
	start := time.Since(t.origin)
	err := fn()
	end := time.Since(t.origin)
	runtime.ReadMemStats(&m)
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[idx]
	s.start, s.end, s.bytes = start, end, m.TotalAlloc-bytes0
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (s span) ms() float64 { return ms(s.end - s.start) }

// layerMetrics summarises the spans: the median per call of every layer
// and its heap bytes, the worker speed-ups, and for the traced ops their
// p50 next to the untraced p50 of the same ops and the median
// unattributed remainder, which on a serve workload is HTTP, mux and
// admission (serve.transport_ms). untraced[i] is the untraced latency of
// op i at the reference speed; scale brings the spans' times to it.
func (t *tracer) layerMetrics(untraced map[int]float64, scale float64) map[string]float64 {
	times := map[string][]float64{}
	allocs := map[string][]float64{}
	attributed := map[int]float64{}
	var opTimes, opUntraced, remainders []float64
	for _, s := range t.spans {
		d := s.ms() * scale
		if s.name == "op" {
			opTimes = append(opTimes, d)
			continue
		}
		times[s.name] = append(times[s.name], d)
		allocs[s.name] = append(allocs[s.name], float64(s.bytes)/(1<<20))
		if s.parent >= 0 && t.spans[s.parent].name == "op" {
			attributed[t.spans[s.parent].op] += d
		}
	}
	for _, s := range t.spans {
		if s.name == "op" {
			opUntraced = append(opUntraced, untraced[s.op])
			remainders = append(remainders, untraced[s.op]-attributed[s.op])
		}
	}
	out := map[string]float64{
		"trace.op_p50_ms":       median(opTimes),
		"trace.untraced_p50_ms": median(opUntraced),
		"serve.transport_ms":    median(remainders),
	}
	for name, v := range times {
		switch {
		case name == "par.for_overhead":
			out["par.for_overhead_us"] = median(v) * 1000
		case strings.HasSuffix(name, "@2"):
			base := strings.TrimSuffix(name, "@2")
			layer := base[strings.LastIndex(base, ".")+1:]
			out["par.speedup."+layer] = median(times[base+"@1"]) / median(v)
		case strings.HasSuffix(name, "@1"):
		default:
			out[name+"_ms"] = median(v)
			out[name+"_alloc_mb"] = median(allocs[name])
		}
	}
	return out
}

// writeChrome writes the spans as a Perfetto-loadable Chrome trace.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"alloc_mb": float64(s.bytes) / (1 << 20)}
		if s.op >= 0 {
			args["op"] = s.op
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func newKNN() ml.Classifier { return ml.NewKNN(5) }

// identityFeaturized is the featurized view nde-serve builds for what-if
// removals: source tuple i is train row i.
func identityFeaturized(d *ml.Dataset) *pipeline.Featurized {
	p := make([]prov.Polynomial, d.Len())
	for i := range p {
		p[i] = prov.Var(prov.TupleID{Table: "train", Row: i})
	}
	return &pipeline.Featurized{Data: d, Prov: p}
}

// decodeBody decodes a request body into v the way the handlers do:
// unknown fields are rejected.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// buildSplit materialises one wire split the way the handler does.
func buildSplit(spec *serve.MatrixSpec) (*ml.Dataset, error) {
	d, err := ml.NewDataset(linalg.FromRows(spec.X), spec.Y)
	if err != nil {
		return nil, err
	}
	return d, d.CheckFinite()
}

// buildRegistered builds the splits of a decoded register request.
func buildRegistered(req *serve.RegisterRequest) (train, valid *ml.Dataset, err error) {
	if train, err = buildSplit(req.Train); err != nil {
		return nil, nil, err
	}
	if valid, err = buildSplit(req.Valid); err != nil {
		return nil, nil, err
	}
	if req.Test != nil {
		if _, err = buildSplit(req.Test); err != nil {
			return nil, nil, err
		}
	}
	return train, valid, nil
}

func encodeJSON(v any) error { return json.NewEncoder(io.Discard).Encode(v) }

// removalRows draws count distinct rows of [0, n).
func removalRows(r *rand.Rand, n, count int) []int {
	return r.Perm(n)[:count]
}

// probeReps is how many times the traced pass builds an index or runs a
// parallel layer at a fixed worker count.
const probeReps = 5

// traceIndexBuild builds a root neighbor index over (train, valid) with
// the given worker count, timing its two stages: the distance kernel,
// then the first Order, which argsorts every query. suffix is appended
// to the span names.
func traceIndexBuild(t *tracer, train, valid *ml.Dataset, workers int, suffix string) error {
	ix, err := ml.NewNeighborIndex(train, valid, workers)
	if err != nil {
		return err
	}
	if err := t.do("linalg.pairwise_d2"+suffix, func() error { ix.D2(); return nil }); err != nil {
		return err
	}
	return t.do("ml.argsort"+suffix, func() error { ix.Order(0); return nil })
}

// traceSetupIndex times the index builds of a workload's set-up, which
// builds one shared index per dataset: sets are the set-up's datasets.
func traceSetupIndex(t *tracer, sets []*split) error {
	for r := 0; r < probeReps; r++ {
		s := sets[r%len(sets)]
		if err := traceIndexBuild(t, s.train, s.valid, 0, ""); err != nil {
			return err
		}
	}
	return nil
}

// traceParallel times the worker pool's fixed cost, then the parallel
// layers the workload reaches at one and at two workers on its own data:
// the index build, and with knn the kNN-Shapley recurrence over a warm
// index.
func traceParallel(t *tracer, s *split, knn bool) error {
	for r := 0; r < traceReps; r++ {
		if err := t.do("par.for_overhead", func() error { par.For("bench.empty", 0, 100, func(int, int) {}); return nil }); err != nil {
			return err
		}
	}
	if knn {
		if _, err := importance.KNNShapleyParallel(5, s.train, s.valid, 0); err != nil {
			return err
		}
	}
	for r := 0; r < probeReps; r++ {
		for _, w := range []int{1, 2} {
			suffix := fmt.Sprintf("@%d", w)
			if err := traceIndexBuild(t, s.train, s.valid, w, suffix); err != nil {
				return err
			}
			if !knn {
				continue
			}
			if err := t.do("importance.knnshapley"+suffix, func() error {
				_, err := importance.KNNShapleyParallel(5, s.train, s.valid, w)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
