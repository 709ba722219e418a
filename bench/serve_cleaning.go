package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"nde/internal/cleaning"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/serve"
)

// serveCleaning is the paper's "learn" loop: compare cleaning strategies
// on datasets registered in set-up. Each round reruns serial kNN-Shapley
// on changed labels (neighbor-index hits) and refits the kNN model on
// the test split. It has the least JSON and no registration in the timed
// window.
type serveCleaning struct {
	*serveSUT
	sets    []*split
	bodies  [][]byte
	plan    []cleaningOp
	replies *bodyTracker
}

type cleaningOp struct {
	d, budget int
	body      []byte
}

func (op cleaningOp) key() string { return fmt.Sprintf("%d/%d", op.d, op.budget) }

// cleaningStrategies are the strategies every request compares, built the
// way the handler builds them.
var cleaningStrategies = []string{"random", "knn-shapley"}

func newServeCleaning(seed int64, ops int, tiny bool) (system, error) {
	n, nValid, nTest := 1000, 100, 300
	if tiny {
		n, nValid, nTest = 200, 20, 40
	}
	w := &serveCleaning{replies: newBodyTracker()}
	for d := 0; d < 4; d++ {
		s, err := genSplit(subSeed(seed, "serve-cleaning", d), n, nValid, nTest, 0.2)
		if err != nil {
			return nil, err
		}
		body, err := s.registerBody(true)
		if err != nil {
			return nil, err
		}
		w.sets = append(w.sets, s)
		w.bodies = append(w.bodies, body)
	}
	// The 12 distinct requests (dataset × budget 20, 30, 40) cycle in a
	// fixed order, so the seed changes the data but never the mix.
	for i := 0; i < ops; i++ {
		w.plan = append(w.plan, cleaningOp{d: i / 3 % len(w.sets), budget: 20 + 10*(i%3)})
	}
	return w, nil
}

func (w *serveCleaning) inputHash() string {
	h := fnv.New64a()
	for _, b := range w.bodies {
		h.Write(b)
	}
	for _, op := range w.plan {
		fmt.Fprint(h, op.key())
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func (w *serveCleaning) setup() (err error) {
	if w.serveSUT, err = startServer(); err != nil {
		return err
	}
	ids := make([]string, len(w.bodies))
	for d, body := range w.bodies {
		if ids[d], err = w.register(body); err != nil {
			return err
		}
	}
	for i := range w.plan {
		op := &w.plan[i]
		req := serve.CleaningRequest{Dataset: ids[op.d], Strategies: cleaningStrategies, Batch: 10, Budget: op.budget}
		if op.body, err = json.Marshal(req); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveCleaning) op(i int) error {
	reply, err := w.post("/v1/cleaning", w.plan[i].body)
	if err != nil {
		return err
	}
	w.replies.add(w.plan[i].key(), reply)
	return nil
}

// check: replies to the same request are identical, and each distinct
// request matches CompareStrategiesParallel at one worker once.
func (w *serveCleaning) check() int {
	bad := w.replies.divergent
	seen := map[string]bool{}
	for _, op := range w.plan {
		if seen[op.key()] {
			continue
		}
		seen[op.key()] = true
		reply, ok := w.replies.first[op.key()]
		if ok && !w.cleaningMatches(reply, op) {
			bad++
		}
	}
	return bad
}

func (w *serveCleaning) compare(op cleaningOp, workers int) ([]*cleaning.Result, error) {
	s := w.sets[op.d]
	strategies := []cleaning.Strategy{&cleaning.RandomStrategy{Seed: 1}, &cleaning.KNNShapleyStrategy{}}
	return cleaning.CompareStrategiesParallel(s.train, s.valid, s.test, &cleaning.LabelOracle{Truth: s.truth},
		strategies, newKNN, 10, op.budget, workers)
}

func (w *serveCleaning) cleaningMatches(reply []byte, op cleaningOp) bool {
	var got serve.CleaningResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return false
	}
	importance.ResetNeighborIndexCache()
	want, err := w.compare(op, 1)
	if err != nil || len(got.Results) != len(want) {
		return false
	}
	for i, r := range got.Results {
		exp := want[i]
		if r.Strategy != exp.Strategy || len(r.Curve) != len(exp.Curve) ||
			math.Float64bits(r.AUC) != math.Float64bits(cleaning.AreaUnderCurve(exp.Curve)) {
			return false
		}
		for j, p := range r.Curve {
			if p.Cleaned != exp.Curve[j].Cleaned || math.Float64bits(p.Accuracy) != math.Float64bits(exp.Curve[j].Accuracy) {
				return false
			}
		}
	}
	return true
}

// trace replays ops: decoding, the strategy comparison and the reply
// encoding. Inside the comparison every round scores the partly cleaned
// train split with kNN-Shapley over the warm index, whose lookup
// fingerprints the train matrix, and refits the kNN model to evaluate it
// on the test split; those calls are timed on each op's dataset after the
// replay. Then the index builds the warm-up ops trigger, one per
// dataset, and the index build at one and two workers.
func (w *serveCleaning) trace(t *tracer, from, reps int) error {
	// Warm the shared indexes untimed, as the server's are after warm-up
	// (the oracles emptied the cache).
	for _, s := range w.sets {
		if _, err := importance.KNNShapleyParallel(5, s.train, s.valid, 0); err != nil {
			return err
		}
	}
	for i := from; i < from+reps; i++ {
		op := w.plan[i]
		var req serve.CleaningRequest
		var results []*cleaning.Result
		err := t.op(i,
			step{"serve.decode", func() error { return decodeBody(op.body, &req) }},
			step{"cleaning.compare", func() (err error) { results, err = w.compare(op, 0); return err }},
			step{"serve.encode", func() error { return encodeJSON(cleaningResponse(results)) }})
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	for i := from; i < from+reps; i++ {
		s := w.sets[w.plan[i].d]
		// A round's train split: the first batch relabeled to the truth.
		cur := s.train.Clone()
		copy(cur.Y[:10], s.truth[:10])
		err := t.calls(
			step{"importance.knnshapley_serial", func() error { _, err := importance.KNNShapley(5, cur, s.valid); return err }},
			step{"linalg.fingerprint", func() error { cur.X.Fingerprint(); return nil }},
			step{"ml.evaluate", func() error { _, err := ml.EvaluateAccuracy(newKNN(), cur, s.test); return err }})
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	if err := traceSetupIndex(t, w.sets); err != nil {
		return err
	}
	return traceParallel(t, w.sets[0], false)
}

// cleaningResponse shapes results the way the handler does.
func cleaningResponse(results []*cleaning.Result) serve.CleaningResponse {
	var resp serve.CleaningResponse
	for _, r := range results {
		out := serve.CleaningStrategyResult{Strategy: r.Strategy, AUC: cleaning.AreaUnderCurve(r.Curve)}
		for _, p := range r.Curve {
			out.Curve = append(out.Curve, serve.CurvePointJSON{Cleaned: p.Cleaned, Accuracy: p.Accuracy})
		}
		resp.Results = append(resp.Results, out)
	}
	return resp
}
