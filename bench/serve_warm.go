package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/pipeline"
	"nde/internal/prov"
	"nde/internal/serve"
)

// serveWarm is a read-heavy mix over datasets registered and warmed in
// set-up: 40% importance with a repeated (dataset, k) — score-store
// hits; 20% importance with a new k — score misses that hit the neighbor
// index and pay the recurrence only; 40% what-if with a fresh batch,
// which builds its base neighbor index on every call, outside the shared
// index store, and so sets p95.
type serveWarm struct {
	*serveSUT
	sets   []*split
	bodies [][]byte
	ids    []string
	plan   []warmOp
	kept   [][]byte // replies checked by the oracle, by op
}

type warmOpKind int

const (
	warmRepeat warmOpKind = iota
	warmNewK
	warmWhatIf
)

// warmOp is one planned op; body is encoded once the dataset ids are
// known.
type warmOp struct {
	kind     warmOpKind
	d, k     int
	variants []serve.WhatIfVariant
	check    bool
	body     []byte
}

// Every 100th importance and every 100th what-if reply is checked: each
// what-if check rebuilds nine indexes at one worker, and more checks
// would not fit the benchmark's time limit.
const warmCheckEvery = 100

func newServeWarm(seed int64, ops int, tiny bool) (system, error) {
	n, nValid := 4000, 100
	if tiny {
		n, nValid = 200, 20
	}
	w := &serveWarm{kept: make([][]byte, ops)}
	for d := 0; d < 3; d++ {
		s, err := genSplit(subSeed(seed, "serve-warm", d), n, nValid, 0, 0.1)
		if err != nil {
			return nil, err
		}
		body, err := s.registerBody(false)
		if err != nil {
			return nil, err
		}
		w.sets = append(w.sets, s)
		w.bodies = append(w.bodies, body)
	}
	// Each block of five ops holds the mix exactly — two repeats, one new
	// k, two what-ifs — in seeded order, so the seed changes the data and
	// the order but never the proportions.
	r := rand.New(rand.NewSource(subSeed(seed, "serve-warm-plan", 0)))
	block := []warmOpKind{warmRepeat, warmRepeat, warmNewK, warmWhatIf, warmWhatIf}
	var scored, whatifs int
	for i := 0; i < ops; i++ {
		if i%len(block) == 0 {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		op := warmOp{kind: block[i%len(block)], d: r.Intn(len(w.sets))}
		switch op.kind {
		case warmRepeat:
			op.k = 3 + 2*r.Intn(2)
		case warmNewK:
			op.k = 6 + r.Intn(59)
		case warmWhatIf:
			op.variants = wireVariants(r, n)
		}
		if op.kind == warmWhatIf {
			whatifs++
			op.check = whatifs%warmCheckEvery == 1
		} else {
			scored++
			op.check = scored%warmCheckEvery == 1
		}
		w.plan = append(w.plan, op)
	}
	return w, nil
}

// wireVariants draws a what-if batch of 8 variants removing 10 rows each.
func wireVariants(r *rand.Rand, n int) []serve.WhatIfVariant {
	vs := make([]serve.WhatIfVariant, 8)
	for v := range vs {
		vs[v] = serve.WhatIfVariant{Name: fmt.Sprintf("v%d", v), Remove: removalRows(r, n, 10)}
	}
	return vs
}

// pipelineVariants is the variant list the handler evaluates: a baseline
// that removes nothing, then the request's variants.
func pipelineVariants(vs []serve.WhatIfVariant) []pipeline.RemovalVariant {
	out := []pipeline.RemovalVariant{{Name: "baseline"}}
	for _, v := range vs {
		ids := make([]prov.TupleID, len(v.Remove))
		for j, row := range v.Remove {
			ids[j] = prov.TupleID{Table: "train", Row: row}
		}
		out = append(out, pipeline.RemovalVariant{Name: v.Name, Remove: ids})
	}
	return out
}

func (w *serveWarm) inputHash() string {
	h := fnv.New64a()
	for _, b := range w.bodies {
		h.Write(b)
	}
	for _, op := range w.plan {
		fmt.Fprint(h, op.kind, op.d, op.k, op.variants)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// setup registers the datasets, scores each at k=3 and k=5 and runs one
// what-if on each, so the op mix starts warm.
func (w *serveWarm) setup() (err error) {
	if w.serveSUT, err = startServer(); err != nil {
		return err
	}
	w.ids = make([]string, len(w.bodies))
	for d, body := range w.bodies {
		if w.ids[d], err = w.register(body); err != nil {
			return err
		}
		for _, k := range []int{3, 5} {
			if _, err := w.post("/v1/importance", importanceBody(w.ids[d], k)); err != nil {
				return err
			}
		}
		warm := serve.WhatIfRequest{Dataset: w.ids[d], Variants: []serve.WhatIfVariant{{Name: "warm", Remove: []int{0}}}}
		b, err := json.Marshal(warm)
		if err != nil {
			return err
		}
		if _, err := w.post("/v1/whatif", b); err != nil {
			return err
		}
	}
	for i := range w.plan {
		op := &w.plan[i]
		if op.kind != warmWhatIf {
			op.body = importanceBody(w.ids[op.d], op.k)
		} else if op.body, err = json.Marshal(serve.WhatIfRequest{Dataset: w.ids[op.d], Variants: op.variants}); err != nil {
			return err
		}
	}
	return nil
}

func importanceBody(id string, k int) []byte {
	return []byte(`{"dataset":"` + id + `","k":` + strconv.Itoa(k) + `}`)
}

func (w *serveWarm) op(i int) error {
	op := &w.plan[i]
	path := "/v1/importance"
	if op.kind == warmWhatIf {
		path = "/v1/whatif"
	}
	reply, err := w.post(path, op.body)
	if err != nil {
		return err
	}
	if op.check {
		w.kept[i] = reply
	}
	return nil
}

// check compares kept importance replies with importance.KNNShapley and
// kept what-if replies with the rebuild oracle at one worker.
func (w *serveWarm) check() int {
	bad := 0
	for i, reply := range w.kept {
		if reply == nil {
			continue
		}
		op, s := w.plan[i], w.sets[w.plan[i].d]
		ok := false
		if op.kind == warmWhatIf {
			ok = whatIfMatches(reply, s, op.variants)
		} else {
			ok = importanceMatches(reply, op.k, s.train, s.valid)
		}
		if !ok {
			bad++
		}
	}
	return bad
}

func whatIfMatches(reply []byte, s *split, vs []serve.WhatIfVariant) bool {
	var got serve.WhatIfResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return false
	}
	want, err := pipeline.WhatIfRemovalsConfig(identityFeaturized(s.train), pipelineVariants(vs), newKNN, s.valid,
		pipeline.WhatIfConfig{ForceRebuild: true, Workers: 1})
	if err != nil || len(got.Results) != len(want)-1 || !sameMetric(&got.Baseline, want[0].Metric) {
		return false
	}
	for j, r := range got.Results {
		exp := want[j+1]
		if r.Name != exp.Name || r.Surviving != exp.Surviving || !sameMetric(r.Metric, exp.Metric) {
			return false
		}
	}
	return true
}

// sameMetric compares a wire metric (nil for NaN) with the oracle's.
func sameMetric(got *float64, want float64) bool {
	if got == nil {
		return math.IsNaN(want)
	}
	return math.Float64bits(*got) == math.Float64bits(want)
}

// trace replays ops by kind: a repeated score is a store hit, so only its
// decoding and encoding are layer work; a new k runs the recurrence over
// the warm index, whose lookup fingerprints the train matrix; a what-if
// runs the batch evaluation, which builds a base index and derives one
// index per variant from it. Those inner calls are timed on each op's
// inputs after the replay, then the index builds of set-up, which warms
// each dataset's shared index, and the parallel layers at one and two
// workers.
func (w *serveWarm) trace(t *tracer, from, reps int) error {
	for i := from; i < from+reps; i++ {
		op, s := w.plan[i], w.sets[w.plan[i].d]
		var scores importance.Scores
		var results []pipeline.WhatIfResult
		var err error
		if op.kind != warmWhatIf {
			// Untimed: the repeated score's value, and for a new k the
			// index the server holds warm (the oracles emptied the cache).
			if scores, err = importance.KNNShapleyParallel(op.k, s.train, s.valid, 0); err != nil {
				return err
			}
		}
		encodeScores := step{"serve.encode", func() error { return encodeJSON(serve.ImportanceResponse{K: op.k, Scores: scores}) }}
		switch op.kind {
		case warmRepeat:
			var req serve.ImportanceRequest
			err = t.op(i, step{"serve.decode", func() error { return decodeBody(op.body, &req) }}, encodeScores)
		case warmNewK:
			var req serve.ImportanceRequest
			err = t.op(i,
				step{"serve.decode", func() error { return decodeBody(op.body, &req) }},
				step{"importance.knnshapley", func() (err error) {
					scores, err = importance.KNNShapleyParallel(op.k, s.train, s.valid, 0)
					return err
				}},
				encodeScores)
		case warmWhatIf:
			var req serve.WhatIfRequest
			ft := identityFeaturized(s.train)
			err = t.op(i,
				step{"serve.decode", func() error { return decodeBody(op.body, &req) }},
				step{"pipeline.whatif", func() (err error) {
					results, err = pipeline.WhatIfRemovalsParallel(ft, pipelineVariants(op.variants), newKNN, s.valid, 0)
					return err
				}},
				step{"serve.encode", func() error { return encodeJSON(whatIfResponse(results)) }})
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	for i := from; i < from+reps; i++ {
		op, s := w.plan[i], w.sets[w.plan[i].d]
		var err error
		switch op.kind {
		case warmNewK:
			err = t.do("linalg.fingerprint", func() error { s.train.X.Fingerprint(); return nil })
		case warmWhatIf:
			err = traceWhatIfVariant(t, s, op.variants[0].Remove)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	if err := traceSetupIndex(t, w.sets); err != nil {
		return err
	}
	return traceParallel(t, w.sets[0], true)
}

// traceWhatIfVariant times the index work of one what-if variant: the
// base index's distance kernel, then deriving the variant's index and
// predicting the validation split from it.
func traceWhatIfVariant(t *tracer, s *split, remove []int) error {
	base, err := ml.NewNeighborIndex(s.train, s.valid, 0)
	if err != nil {
		return err
	}
	if err := t.do("linalg.pairwise_d2", func() error { base.D2(); return nil }); err != nil {
		return err
	}
	base.PredictBatch(5)
	var child *ml.NeighborIndex
	if err := t.do("ml.remove_rows", func() (err error) { child, err = base.RemoveRows(remove); return err }); err != nil {
		return err
	}
	return t.do("ml.predict_batch", func() error { _, err := child.PredictBatchLabels(5, child.Train.Y); return err })
}

// whatIfResponse shapes results the way the handler does.
func whatIfResponse(results []pipeline.WhatIfResult) serve.WhatIfResponse {
	resp := serve.WhatIfResponse{Baseline: results[0].Metric}
	for _, r := range results[1:] {
		out := serve.WhatIfResultJSON{Name: r.Name, Surviving: r.Surviving}
		if !math.IsNaN(r.Metric) {
			m := r.Metric
			out.Metric = &m
		}
		resp.Results = append(resp.Results, out)
	}
	return resp
}
