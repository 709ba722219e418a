package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/serve"
)

// serveCold registers a dataset and scores it in every op, cycling
// through more datasets than any cache holds (dataset LRU 32,
// serve_scores 32, neighbor-index store 4), so every op misses every
// cache and pays decode, fingerprinting, the distance kernel, argsort and
// the recurrence. It never touches the delta layer.
type serveCold struct {
	*serveSUT
	sets    []*split
	bodies  [][]byte
	replies *bodyTracker
}

func newServeCold(seed int64, ops int, tiny bool) (system, error) {
	datasets, n, nValid := 40, 4000, 100
	if tiny {
		datasets, n, nValid = 6, 200, 20
	}
	w := &serveCold{replies: newBodyTracker()}
	// A run with fewer ops (a set-up-only child) needs only the datasets
	// its ops reach; each dataset depends on its own seed alone.
	for d := 0; d < min(datasets, ops); d++ {
		s, err := genSplit(subSeed(seed, "serve-cold", d), n, nValid, 0, 0.1)
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
	return w, nil
}

func (w *serveCold) inputHash() string {
	h := fnv.New64a()
	for _, b := range w.bodies {
		h.Write(b)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func (w *serveCold) setup() (err error) {
	w.serveSUT, err = startServer()
	return err
}

func (w *serveCold) op(i int) error {
	d := i % len(w.bodies)
	id, err := w.register(w.bodies[d])
	if err != nil {
		return err
	}
	reply, err := w.post("/v1/importance", importanceBody(id, 5))
	if err != nil {
		return err
	}
	w.replies.add(strconv.Itoa(d), reply)
	return nil
}

// check: every reply for a dataset is identical, and the first one is
// Float64bits-equal to the serial oracle importance.KNNShapley.
func (w *serveCold) check() int {
	bad := w.replies.divergent
	for d, s := range w.sets {
		reply, ok := w.replies.first[strconv.Itoa(d)]
		if !ok {
			continue
		}
		if !importanceMatches(reply, 5, s.train, s.valid) {
			bad++
		}
	}
	return bad
}

// importanceMatches decodes an importance reply and compares its scores
// bit for bit with importance.KNNShapley. The shared index cache is
// emptied first, so the oracle rebuilds the geometry the server cached.
func importanceMatches(reply []byte, k int, train, valid *ml.Dataset) bool {
	var got serve.ImportanceResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return false
	}
	importance.ResetNeighborIndexCache()
	want, err := importance.KNNShapley(k, train, valid)
	return err == nil && got.K == k && bitsEqual(got.Scores, want)
}

// trace replays ops in handler order: register (decode, build,
// fingerprint), then importance (distance kernel, argsort, recurrence
// over the warm index, encode). Then the parallel layers at one and two
// workers.
func (w *serveCold) trace(t *tracer, from, reps int) error {
	for i := from; i < from+reps; i++ {
		s, body := w.sets[i%len(w.sets)], w.bodies[i%len(w.bodies)]
		// Warm the shared index untimed, so importance.knnshapley below
		// times the recurrence alone; its kernel and argsort are timed
		// by their own spans.
		if _, err := importance.KNNShapleyParallel(5, s.train, s.valid, 0); err != nil {
			return err
		}
		var req serve.RegisterRequest
		var train, valid *ml.Dataset
		var ix *ml.NeighborIndex
		var scores importance.Scores
		err := t.op(i,
			step{"serve.decode", func() error { return decodeBody(body, &req) }},
			step{"ml.dataset_build", func() (err error) { train, valid, err = buildRegistered(&req); return err }},
			step{"linalg.fingerprint", func() error { train.X.Fingerprint(); return nil }},
			step{"linalg.pairwise_d2", func() (err error) {
				if ix, err = ml.NewNeighborIndex(train, valid, 0); err == nil {
					ix.D2()
				}
				return err
			}},
			step{"ml.argsort", func() error { ix.Order(0); return nil }},
			step{"importance.knnshapley", func() (err error) { scores, err = importance.KNNShapleyParallel(5, train, valid, 0); return err }},
			step{"serve.encode", func() error { return encodeJSON(serve.ImportanceResponse{K: 5, Scores: scores}) }},
		)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return traceParallel(t, w.sets[0], true)
}
