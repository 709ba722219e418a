package nde_test

// stress_test.go — the race-stress gate: hammer the facade's concurrent
// entry points (kNN-Shapley scoring, what-if removal batches, iterative
// cleaning) from many goroutines over several distinct datasets, under the
// race detector, and assert that every concurrent result is bit-for-bit
// identical to a serial baseline. A churn goroutine resets the facade's
// neighbor-index store throughout, so the singleflight build/evict/reset
// paths are exercised at the same time.
//
// The default scale is small enough for `go test -race ./...`; set
// NDE_STRESS=1 (as `make stress` does) for the heavier sweep.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"nde"
	"nde/internal/datagen"
	"nde/internal/serve"
)

// stressScale returns (datasets, goroutines, iterations per goroutine).
func stressScale() (int, int, int) {
	if os.Getenv("NDE_STRESS") == "1" {
		return 4, 8, 3
	}
	return 2, 4, 2
}

// stressFixture is one dataset's inputs plus serial baselines for every
// entry point under stress.
type stressFixture struct {
	id int

	trainFrame, validFrame *nde.Frame

	dirty, valid, test *nde.Dataset
	truth              []int

	ft        *nde.Featurized
	validLike *nde.Dataset
	variants  []nde.RemovalVariant

	baseShapley  nde.Scores
	baseWhatIf   []nde.WhatIfResult
	baseCleaning *nde.CleaningResult
}

func newStressFixture(t *testing.T, id int) *stressFixture {
	t.Helper()
	fx := &stressFixture{id: id}
	n := 110 + 10*id
	seed := int64(100 + id)
	s := nde.LoadRecommendationLetters(n, seed)
	fx.trainFrame, fx.validFrame = s.Train, s.Valid

	dTrain, dValid, dTest, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	fx.truth = append([]int(nil), dTrain.Y...)
	fx.dirty, _, err = datagen.FlipDatasetLabels(dTrain, 0.15, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	fx.valid, fx.test = dValid, dTest

	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		t.Fatal(err)
	}
	if fx.ft, err = hp.WithProvenance(); err != nil {
		t.Fatal(err)
	}
	if fx.validLike, err = hp.FeaturizeValidationLike(s.Valid, s.Data.Jobs, s.Data.Social, hp.Encoder); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		rows := make([]nde.TupleID, 0, 4)
		for r := v * 5; r < v*5+4 && r < hp.TrainRows; r++ {
			rows = append(rows, nde.TupleID{Table: "train", Row: r})
		}
		fx.variants = append(fx.variants, nde.RemovalVariant{
			Name:   fmt.Sprintf("drop-%d", v),
			Remove: rows,
		})
	}
	// one variant that removes every source row — the NaN-sentinel path must
	// stay stable under concurrency too
	all := make([]nde.TupleID, hp.TrainRows)
	for r := range all {
		all[r] = nde.TupleID{Table: "train", Row: r}
	}
	fx.variants = append(fx.variants, nde.RemovalVariant{Name: "everything", Remove: all})

	// serial baselines: workers pinned to 1, facade store cold
	nde.ResetNeighborIndexCache()
	if fx.baseShapley, err = nde.KNNShapleyValues(s.Train, s.Valid, 5); err != nil {
		t.Fatal(err)
	}
	if fx.baseWhatIf, err = nde.WhatIfParallel(fx.ft, fx.variants, fx.validLike, 1); err != nil {
		t.Fatal(err)
	}
	if fx.baseCleaning, err = nde.IterativeCleaning(fx.dirty, fx.valid, fx.test, fx.truth, 4, 8); err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *stressFixture) checkShapley() error {
	got, err := nde.KNNShapleyValues(fx.trainFrame, fx.validFrame, 5)
	if err != nil {
		return fmt.Errorf("dataset %d shapley: %w", fx.id, err)
	}
	if len(got) != len(fx.baseShapley) {
		return fmt.Errorf("dataset %d shapley: %d scores, want %d", fx.id, len(got), len(fx.baseShapley))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(fx.baseShapley[i]) {
			return fmt.Errorf("dataset %d shapley: score %d = %v, serial baseline %v", fx.id, i, got[i], fx.baseShapley[i])
		}
	}
	return nil
}

func (fx *stressFixture) checkWhatIf() error {
	got, err := nde.WhatIfParallel(fx.ft, fx.variants, fx.validLike, 0)
	if err != nil {
		return fmt.Errorf("dataset %d what-if: %w", fx.id, err)
	}
	if len(got) != len(fx.baseWhatIf) {
		return fmt.Errorf("dataset %d what-if: %d results, want %d", fx.id, len(got), len(fx.baseWhatIf))
	}
	for i := range got {
		w, b := got[i], fx.baseWhatIf[i]
		if w.Name != b.Name || w.Surviving != b.Surviving ||
			math.Float64bits(w.Metric) != math.Float64bits(b.Metric) {
			return fmt.Errorf("dataset %d what-if: variant %d = %+v, serial baseline %+v", fx.id, i, w, b)
		}
	}
	return nil
}

func (fx *stressFixture) checkCleaning() error {
	got, err := nde.IterativeCleaning(fx.dirty, fx.valid, fx.test, fx.truth, 4, 8)
	if err != nil {
		return fmt.Errorf("dataset %d cleaning: %w", fx.id, err)
	}
	b := fx.baseCleaning
	if got.Strategy != b.Strategy || len(got.Curve) != len(b.Curve) {
		return fmt.Errorf("dataset %d cleaning: curve %d points (%s), want %d (%s)",
			fx.id, len(got.Curve), got.Strategy, len(b.Curve), b.Strategy)
	}
	for i := range got.Curve {
		if got.Curve[i].Cleaned != b.Curve[i].Cleaned ||
			math.Float64bits(got.Curve[i].Accuracy) != math.Float64bits(b.Curve[i].Accuracy) {
			return fmt.Errorf("dataset %d cleaning: point %d = %+v, serial baseline %+v",
				fx.id, i, got.Curve[i], b.Curve[i])
		}
	}
	for i := range got.Final.Y {
		if got.Final.Y[i] != b.Final.Y[i] {
			return fmt.Errorf("dataset %d cleaning: final label %d = %d, serial baseline %d",
				fx.id, i, got.Final.Y[i], b.Final.Y[i])
		}
	}
	return nil
}

// serveStressRequest builds a small deterministic two-cluster registration
// body; seedish shifts the geometry so distinct datasets hash to distinct
// content-addressed ids.
func serveStressRequest(train, valid, seedish int) serve.RegisterRequest {
	mk := func(n, off int) *serve.MatrixSpec {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			c := i % 2
			b := float64(c*4 + seedish)
			j := float64((i+off)%7) * 0.1
			x[i] = []float64{b + j, b - j, b + 2*j}
			y[i] = c
		}
		return &serve.MatrixSpec{X: x, Y: y}
	}
	return serve.RegisterRequest{Train: mk(train, 0), Valid: mk(valid, 3)}
}

// serveBaseline is one registered dataset's first-response baselines; every
// concurrent response must match them bit-for-bit (JSON encodes float64
// exactly, so equality survives the wire).
type serveBaseline struct {
	id     string
	rows   int
	scores []float64
	whatIf serve.WhatIfResponse
}

// TestStressServerBacked hammers the serving core over real HTTP: every
// goroutine loops registrations (idempotent re-register), sync and async
// importance, and what-ifs across two datasets, comparing each response
// bit-for-bit against the first one.
func TestStressServerBacked(t *testing.T) {
	if testing.Short() {
		t.Skip("stress gate skipped in -short mode")
	}
	_, goroutines, iters := stressScale()

	core := serve.NewServer(serve.Config{Slots: goroutines + 2, Queue: 4 * goroutines})
	ts := httptest.NewServer(core.Handler())
	defer ts.Close()

	post := func(path string, body, out any) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			var e serve.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("%s: status %d class %q: %s", path, resp.StatusCode, e.Class, e.Error)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	variantsFor := func(rows int) []serve.WhatIfVariant {
		all := make([]int, rows)
		for i := range all {
			all[i] = i
		}
		return []serve.WhatIfVariant{
			{Name: "drop-four", Remove: []int{0, 1, 2, 3}},
			{Name: "everything", Remove: all}, // NaN-sentinel path: null metric
		}
	}

	bases := make([]*serveBaseline, 2)
	for d := range bases {
		req := serveStressRequest(60+10*d, 20, d)
		var reg serve.RegisterResponse
		if err := post("/v1/datasets", req, &reg); err != nil {
			t.Fatal(err)
		}
		b := &serveBaseline{id: reg.ID, rows: reg.TrainRows}
		var imp serve.ImportanceResponse
		if err := post("/v1/importance", serve.ImportanceRequest{Dataset: b.id, K: 5}, &imp); err != nil {
			t.Fatal(err)
		}
		b.scores = imp.Scores
		if err := post("/v1/whatif", serve.WhatIfRequest{Dataset: b.id, Variants: variantsFor(b.rows)}, &b.whatIf); err != nil {
			t.Fatal(err)
		}
		bases[d] = b
	}

	checkScores := func(b *serveBaseline, got []float64) error {
		if len(got) != len(b.scores) {
			return fmt.Errorf("dataset %s: %d scores, want %d", b.id, len(got), len(b.scores))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(b.scores[i]) {
				return fmt.Errorf("dataset %s: score %d = %v, baseline %v", b.id, i, got[i], b.scores[i])
			}
		}
		return nil
	}
	checkImportance := func(b *serveBaseline, async bool) error {
		if !async {
			var imp serve.ImportanceResponse
			if err := post("/v1/importance", serve.ImportanceRequest{Dataset: b.id, K: 5}, &imp); err != nil {
				return err
			}
			return checkScores(b, imp.Scores)
		}
		var acc serve.AsyncAccepted
		if err := post("/v1/importance", serve.ImportanceRequest{Dataset: b.id, K: 5, Async: true}, &acc); err != nil {
			return err
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/v1/runs/" + acc.Run)
			if err != nil {
				return err
			}
			var poll struct {
				State  string                   `json:"state"`
				Result serve.ImportanceResponse `json:"result"`
				Error  string                   `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&poll)
			resp.Body.Close()
			if err != nil {
				return err
			}
			switch poll.State {
			case "done":
				return checkScores(b, poll.Result.Scores)
			case "error":
				return fmt.Errorf("run %s failed: %s", acc.Run, poll.Error)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("run %s still %q after 30s", acc.Run, poll.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	checkWhatIf := func(b *serveBaseline) error {
		var got serve.WhatIfResponse
		if err := post("/v1/whatif", serve.WhatIfRequest{Dataset: b.id, Variants: variantsFor(b.rows)}, &got); err != nil {
			return err
		}
		if math.Float64bits(got.Baseline) != math.Float64bits(b.whatIf.Baseline) || len(got.Results) != len(b.whatIf.Results) {
			return fmt.Errorf("dataset %s: what-if shape/baseline drifted", b.id)
		}
		for i := range got.Results {
			w, base := got.Results[i], b.whatIf.Results[i]
			if w.Name != base.Name || w.Surviving != base.Surviving ||
				(w.Metric == nil) != (base.Metric == nil) {
				return fmt.Errorf("dataset %s: variant %d = %+v, baseline %+v", b.id, i, w, base)
			}
			if w.Metric != nil && math.Float64bits(*w.Metric) != math.Float64bits(*base.Metric) {
				return fmt.Errorf("dataset %s: variant %d metric %v, baseline %v", b.id, i, *w.Metric, *base.Metric)
			}
		}
		return nil
	}
	checkRegister := func(d int, b *serveBaseline) error {
		var reg serve.RegisterResponse
		if err := post("/v1/datasets", serveStressRequest(60+10*d, 20, d), &reg); err != nil {
			return err
		}
		if reg.ID != b.id {
			return fmt.Errorf("re-register: id %s, want %s (content addressing drifted)", reg.ID, b.id)
		}
		return nil
	}

	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for d := range bases {
					b := bases[(g+d)%len(bases)]
					checks := []func() error{
						func() error { return checkRegister((g+d)%len(bases), b) },
						func() error { return checkImportance(b, (g+it)%2 == 1) },
						func() error { return checkWhatIf(b) },
					}
					for c := 0; c < len(checks); c++ {
						if err := checks[(g+it+c)%len(checks)](); err != nil {
							select {
							case errc <- err:
							default:
							}
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestStressConcurrentFacade is the gate itself: every goroutine loops over
// every dataset calling all three entry points (starting at a different one
// per goroutine so the interleavings differ), while a churn goroutine
// resets the facade's neighbor-index store to force concurrent rebuilds.
func TestStressConcurrentFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("stress gate skipped in -short mode")
	}
	nDatasets, goroutines, iters := stressScale()
	fixtures := make([]*stressFixture, nDatasets)
	for d := range fixtures {
		fixtures[d] = newStressFixture(t, d)
	}

	errc := make(chan error, goroutines)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for d := range fixtures {
					fx := fixtures[(g+d)%len(fixtures)]
					checks := []func() error{fx.checkShapley, fx.checkWhatIf, fx.checkCleaning}
					for c := 0; c < len(checks); c++ {
						if err := checks[(g+it+c)%len(checks)](); err != nil {
							select {
							case errc <- err:
							default:
							}
							return
						}
					}
				}
			}
		}(g)
	}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				nde.ResetNeighborIndexCache()
			}
		}
	}()
	wg.Wait()
	close(done)
	churn.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
