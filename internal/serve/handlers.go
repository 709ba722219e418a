package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"nde"
	"nde/internal/cleaning"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
	"nde/internal/pipeline"
	"nde/internal/prov"
)

// newModel is the classifier factory every serving computation retrains
// with — the facade default (5-NN), fresh per call so concurrent
// retrains never share state.
func newModel() ml.Classifier { return ml.NewKNN(5) }

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes the uniform error envelope and counts the failure.
func writeErr(w http.ResponseWriter, status int, msg, class string) {
	obs.Inc("serve_errors_total")
	writeJSON(w, status, ErrorResponse{Error: msg, Class: class})
}

// writeComputeErr maps a computation error to the envelope: degenerate-
// input family members are the client's fault (400), anything else is a
// server-side failure (500). The class comes from nde.ErrorClass, the
// same vocabulary the run ledger records.
func writeComputeErr(w http.ResponseWriter, err error) {
	class := nde.ErrorClass(err)
	status := http.StatusInternalServerError
	if errors.Is(err, nderr.ErrDegenerateInput) {
		status = http.StatusBadRequest
	}
	writeErr(w, status, err.Error(), class)
}

// post guards a mutating endpoint: only POST passes.
func post(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed", "method_not_allowed")
		return false
	}
	return true
}

// errComputePanic is wrapped by the error a computation that panicked
// returns, so a bug in one request is a 500 or a run in state "error"
// instead of a dead daemon.
var errComputePanic = errors.New("computation panicked")

// recoverCompute calls fn and turns a panic in it into an error wrapping
// errComputePanic.
func recoverCompute(fn func() (any, error)) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v", errComputePanic, p)
		}
	}()
	return fn()
}

// compute runs one budgeted computation, sync or async. Admission order:
// drain check (503), then the concurrency budget (429 when both the
// slots and the wait queue are full). The drain check also registers
// the computation with the run registry, atomically with respect to
// Drain, so Drain waits for everything it did not refuse — including
// computations still queued for a budget slot. The budget slot is held
// for the whole computation; async runs hold theirs until the worker
// finishes. A panic in fn is recovered on both paths (recoverCompute):
// the slots are released and the ledger op recorded as for any error.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, op string, async bool, rows, workers int, fn func() (any, error)) {
	obs.Inc("serve_requests_total")
	if !s.runs.track() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining", "draining")
		return
	}
	if err := s.budget.Acquire(r.Context()); err != nil {
		s.runs.untrack()
		if errors.Is(err, par.ErrBudgetExhausted) {
			writeErr(w, http.StatusTooManyRequests, "concurrency budget exhausted, retry later", "busy")
		} else {
			// request context ended while queued: the client is gone
			writeErr(w, http.StatusServiceUnavailable, "request canceled while queued", "canceled")
		}
		return
	}

	if async {
		run := s.runs.begin(op)
		go func() {
			defer s.budget.Release()
			start := time.Now()
			res, err := recoverCompute(fn)
			obs.RecordOp(op, time.Since(start), rows, workers, "", nde.ErrorClass(err))
			s.runs.finish(run, res, err)
		}()
		writeJSON(w, http.StatusAccepted, AsyncAccepted{Run: run.id})
		return
	}

	defer s.runs.untrack()
	defer s.budget.Release()
	start := time.Now()
	res, err := recoverCompute(fn)
	obs.RecordOp(op, time.Since(start), rows, workers, "", nde.ErrorClass(err))
	if err != nil {
		writeComputeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleDatasets implements POST /v1/datasets. The body goes through
// decodeRegister's fast path first; a body outside its subset is decoded
// again with encoding/json, so every such reply, error or not, is the one
// encoding/json alone would give.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	obs.Inc("serve_requests_total")
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req RegisterRequest
	if !decodeRegister(body, &req) && !decodeJSON(w, body, &req) {
		return
	}
	start := time.Now()
	d, err := s.registerDataset(&req)
	obs.RecordOp("ServeRegister", time.Since(start), 0, 0, "", nde.ErrorClass(err))
	if err != nil {
		writeComputeErr(w, err)
		return
	}
	resp := RegisterResponse{
		ID:        d.id,
		Name:      d.name,
		TrainRows: d.train.Len(),
		ValidRows: d.valid.Len(),
		Dim:       d.train.Dim(),
	}
	if d.test != nil {
		resp.TestRows = d.test.Len()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleImportance implements POST /v1/importance: kNN-Shapley over the
// train split. Score vectors are content-addressed by (dataset, k) in a
// singleflight store, so concurrent identical requests share one
// computation and repeated ones are cache hits; distinct k values over
// the same dataset still share the one neighbor index underneath.
func (s *Server) handleImportance(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req ImportanceRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K == 0 {
		req.K = 5
	}
	d, ok := s.lookup(req.Dataset)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown dataset "+req.Dataset, "not_found")
		return
	}
	if req.K < 1 || req.K > d.train.Len() {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("k %d outside [1, %d]", req.K, d.train.Len()), "bad_k")
		return
	}
	s.compute(w, r, "ServeImportance", req.Async, d.train.Len(), req.Workers, func() (any, error) {
		scores, err := s.scores.GetOrBuild(scoreKey{dataset: d.id, k: req.K}, func() ([]float64, error) {
			sc, err := importance.KNNShapleyParallel(req.K, d.train, d.valid, req.Workers)
			if err != nil {
				return nil, err
			}
			return []float64(sc), nil
		})
		if err != nil {
			return nil, err
		}
		return ImportanceResponse{Dataset: d.id, K: req.K, Scores: scores}, nil
	})
}

// handleWhatIf implements POST /v1/whatif: batch removal counterfactuals
// over the identity-provenance featurized train split. A hidden baseline
// variant (remove nothing) is prepended so the response always reports
// the un-intervened metric alongside the variants.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req WhatIfRequest
	if !s.decode(w, r, &req) {
		return
	}
	d, ok := s.lookup(req.Dataset)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown dataset "+req.Dataset, "not_found")
		return
	}
	variants := make([]pipeline.RemovalVariant, 0, len(req.Variants)+1)
	variants = append(variants, pipeline.RemovalVariant{Name: "baseline"})
	for _, v := range req.Variants {
		ids := make([]prov.TupleID, len(v.Remove))
		for j, row := range v.Remove {
			if row < 0 || row >= d.train.Len() {
				writeErr(w, http.StatusBadRequest,
					fmt.Sprintf("variant %q removes row %d outside [0, %d)", v.Name, row, d.train.Len()),
					"bad_request")
				return
			}
			ids[j] = prov.TupleID{Table: "train", Row: row}
		}
		variants = append(variants, pipeline.RemovalVariant{Name: v.Name, Remove: ids})
	}
	key := whatifKey{dataset: d.id, variants: variantsFingerprint(variants)}
	s.compute(w, r, "ServeWhatIf", req.Async, d.train.Len(), req.Workers, func() (any, error) {
		// Cached like scores: identical batches (any worker count — results
		// are worker-invariant) share one evaluation; concurrent identical
		// requests share one build (singleflight).
		return s.whatifs.GetOrBuild(key, func() (WhatIfResponse, error) {
			ft, err := s.featurizedFor(d)
			if err != nil {
				return WhatIfResponse{}, err
			}
			results, err := pipeline.WhatIfRemovalsParallel(ft, variants, newModel, d.valid, req.Workers)
			if err != nil {
				return WhatIfResponse{}, err
			}
			resp := WhatIfResponse{Dataset: d.id, Baseline: results[0].Metric}
			for _, res := range results[1:] {
				out := WhatIfResultJSON{Name: res.Name, Surviving: res.Surviving}
				if !math.IsNaN(res.Metric) {
					m := res.Metric
					out.Metric = &m
				}
				resp.Results = append(resp.Results, out)
			}
			return resp, nil
		})
	})
}

// variantsFingerprint hashes the ordered variant list (names and removal
// rows) for the what-if response cache key.
func variantsFingerprint(variants []pipeline.RemovalVariant) uint64 {
	h := fnv.New64a()
	var b [8]byte
	write := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	write(uint64(len(variants)))
	for _, v := range variants {
		io.WriteString(h, v.Name)
		write(uint64(len(v.Remove)))
		for _, id := range v.Remove {
			io.WriteString(h, id.Table)
			write(uint64(int64(id.Row)))
		}
	}
	return h.Sum64()
}

// strategyByName maps wire names to cleaning strategies. Seeded
// strategies use a fixed seed so responses are reproducible.
func strategyByName(name string) (cleaning.Strategy, bool) {
	switch name {
	case "random":
		return &cleaning.RandomStrategy{Seed: 1}, true
	case "knn-shapley":
		return &cleaning.KNNShapleyStrategy{}, true
	case "loo":
		return &cleaning.LOOStrategy{}, true
	case "noise-score":
		return &cleaning.NoiseStrategy{Seed: 1}, true
	case "influence":
		return &cleaning.InfluenceStrategy{}, true
	default:
		return nil, false
	}
}

// handleCleaning implements POST /v1/cleaning: compare cleaning
// strategies on a dataset registered with a test split and ground-truth
// labels (the label oracle).
func (s *Server) handleCleaning(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req CleaningRequest
	if !s.decode(w, r, &req) {
		return
	}
	d, ok := s.lookup(req.Dataset)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown dataset "+req.Dataset, "not_found")
		return
	}
	if d.test == nil || d.truth == nil {
		writeErr(w, http.StatusBadRequest,
			"dataset was registered without test split and truth labels; cleaning needs both", "bad_request")
		return
	}
	if len(req.Strategies) == 0 {
		req.Strategies = []string{"random", "knn-shapley"}
	}
	strategies := make([]cleaning.Strategy, len(req.Strategies))
	for i, name := range req.Strategies {
		st, ok := strategyByName(name)
		if !ok {
			writeErr(w, http.StatusBadRequest, "unknown cleaning strategy "+name, "bad_request")
			return
		}
		strategies[i] = st
	}
	if req.Batch <= 0 {
		req.Batch = 10
	}
	if req.Budget <= 0 {
		req.Budget = 50
	}
	s.compute(w, r, "ServeCleaning", req.Async, d.train.Len(), req.Workers, func() (any, error) {
		oracle := &cleaning.LabelOracle{Truth: d.truth}
		results, err := cleaning.CompareStrategiesParallel(
			d.train, d.valid, d.test, oracle, strategies, newModel, req.Batch, req.Budget, req.Workers)
		if err != nil {
			return nil, err
		}
		resp := CleaningResponse{Dataset: d.id}
		for _, res := range results {
			out := CleaningStrategyResult{
				Strategy: res.Strategy,
				AUC:      cleaning.AreaUnderCurve(res.Curve),
			}
			for _, p := range res.Curve {
				out.Curve = append(out.Curve, CurvePointJSON{Cleaned: p.Cleaned, Accuracy: p.Accuracy})
			}
			resp.Results = append(resp.Results, out)
		}
		return resp, nil
	})
}

// handleRuns implements GET /v1/runs/{id}: poll an async run.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed", "method_not_allowed")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/runs/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, http.StatusNotFound, "missing run id", "not_found")
		return
	}
	run, ok := s.runs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown run "+id, "not_found")
		return
	}
	resp := RunResponse{ID: run.id, Op: run.op, State: "running"}
	if run.finished() {
		if run.err != nil {
			resp.State = "error"
			resp.Error = run.err.Error()
			resp.Class = nde.ErrorClass(run.err)
		} else {
			resp.State = "done"
			resp.Result = run.result
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
