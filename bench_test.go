package nde_test

// One benchmark per experiment of DESIGN.md §3. Each bench regenerates the
// corresponding figure/table of the tutorial at a bench-friendly scale; run
// `go test -bench=. -benchmem` to produce all series, or cmd/nde-figures
// for the full-size human-readable tables.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"nde"
	"nde/internal/cleaning"
	"nde/internal/datagen"
	"nde/internal/exp"
	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/pipeline"
	"nde/internal/prov"
	"nde/internal/serve"
)

func BenchmarkE1Figure2KNNShapleyCleaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E1Figure2(200, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Figure3DatascopePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E2Figure3(300, 43); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Figure4ZorroCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E3Figure4(120, 44); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4Figure1QualityMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E4Figure1(200, 45); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ImportanceMethodComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E5MethodComparison(100, 46); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6ShapleyScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E6Scalability(47); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7IterativeCleaningStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E7CleaningStrategies(150, 48); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8CertainPredictions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E8CertainPredictions(100, 49); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9ChallengeLeaderboard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E9Challenge(150, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10PipelineScreening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E10PipelineScreening(150, 51); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11ZorroVsImputation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E11ZorroVsImputation(100, 52); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12GopherFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E12GopherFairness(120, 53); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13Unlearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E13Unlearning(150, 61); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14Amortization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E14Amortization(150, 62); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE15RAGImportance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E15RAGImportance(63); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16WhatIfOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E16WhatIfOptimization(200, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17DatascopeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E17DatascopeAblation(200, 65); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18DetectionBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E18DetectionBenchmark(200, 66); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks and ablations on the core primitives ---

// warmStore returns a store holding the neighbor index of (train, valid)
// with its order table, built outside any timed loop; a lookup in the
// loop then hashes both matrices and hits, as an owner's repeated calls
// do.
func warmStore(b *testing.B, train, valid *ml.Dataset) *ml.IndexStore {
	b.Helper()
	st := ml.NewIndexStore()
	lookupIndex(b, st, train, valid).Order(0)
	return st
}

// lookupIndex is an owner's lookup of the (train, valid) index in st.
func lookupIndex(b *testing.B, st *ml.IndexStore, train, valid *ml.Dataset) *ml.NeighborIndex {
	ix, err := st.Index(ml.KeyOf(train, valid), train, valid, 0)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func benchDataset(b *testing.B, n int) (*ml.Dataset, *ml.Dataset) {
	b.Helper()
	s := nde.LoadRecommendationLetters(n, 7)
	dTrain, dValid, _, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		b.Fatal(err)
	}
	return dTrain, dValid
}

// Ablation: the kNN proxy's exact Shapley vs. Monte-Carlo retraining at the
// same training size — quantifies the cost of skipping the closed form.
func BenchmarkAblationKNNShapleyClosedForm(b *testing.B) {
	train, valid := benchDataset(b, 200)
	st := warmStore(b, train, valid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := importance.KNNShapleyWithIndex(5, lookupIndex(b, st, train, valid), train.Y, valid.Y, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTMCShapley10Perms(b *testing.B) {
	train, valid := benchDataset(b, 200)
	u := importance.AccuracyUtility(func() ml.Classifier { return ml.NewKNN(5) }, train, valid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := importance.MCShapleyConfig{Permutations: 10, Seed: int64(i), Truncation: 0.01}
		if _, err := importance.MCShapley(train.Len(), u, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: TMC truncation threshold sweep — larger thresholds cut more
// utility evaluations at some accuracy cost.
func BenchmarkAblationTMCTruncation(b *testing.B) {
	train, valid := benchDataset(b, 120)
	u := importance.AccuracyUtility(func() ml.Classifier { return ml.NewKNN(5) }, train, valid)
	for _, tol := range []float64{0, 0.01, 0.05} {
		name := "tol0"
		switch tol {
		case 0.01:
			name = "tol0.01"
		case 0.05:
			name = "tol0.05"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := importance.MCShapleyConfig{Permutations: 5, Seed: int64(i), Truncation: tol}
				if _, err := importance.MCShapley(train.Len(), u, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSelfConfidenceScores(b *testing.B) {
	train, _ := benchDataset(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := importance.SelfConfidence(train, importance.NoiseConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInfluenceFunctions(b *testing.B) {
	train, valid := benchDataset(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := importance.Influence(train, valid, importance.InfluenceConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHiringPipelineRun(b *testing.B) {
	s := nde.LoadRecommendationLetters(500, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hp.WithProvenance(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- observability overhead on the hot paths ---
//
// The obs-off sub-benchmarks are the disabled-by-default contract: with
// observability off, the instrumented pipeline.Run and kNN-Shapley paths
// must show no measurable time regression and no extra allocations
// relative to the seed (compare allocs/op between off and on to see what
// instrumentation itself costs). on runs with span allocation capture
// off; capture turns it on, as cmd/nde-serve runs, so it pays what a
// served request pays for its spans.

func BenchmarkPipelineRunObs(b *testing.B) {
	s := nde.LoadRecommendationLetters(500, 9)
	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"off", "on", "capture"} {
		b.Run(mode, func(b *testing.B) {
			if mode != "off" {
				obs.Enable()
				obs.DefaultTracer().CaptureAllocs(mode == "capture")
				defer func() {
					obs.Disable()
					obs.Reset()
					obs.DefaultTracer().CaptureAllocs(true)
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hp.Pipeline.Run(hp.Output); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKNNShapleyObs(b *testing.B) {
	train, valid := benchDataset(b, 200)
	st := warmStore(b, train, valid)
	for _, mode := range []string{"off", "on", "capture"} {
		b.Run(mode, func(b *testing.B) {
			if mode != "off" {
				obs.Enable()
				obs.DefaultTracer().CaptureAllocs(mode == "capture")
				defer func() {
					obs.Disable()
					obs.Reset()
					obs.DefaultTracer().CaptureAllocs(true)
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := importance.KNNShapleyWithIndex(5, lookupIndex(b, st, train, valid), train.Y, valid.Y, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKNNShapleyParallelObsOff(b *testing.B) {
	train, valid := benchDataset(b, 200)
	st := warmStore(b, train, valid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := importance.KNNShapleyWithIndex(5, lookupIndex(b, st, train, valid), train.Y, valid.Y, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// MCShapleyParallel worker-count scaling on the retraining utility: the
// per-permutation seeds make every worker count bit-identical, so this
// measures pure scheduling overhead vs. parallel speedup. Expect
// near-linear scaling from 1 to GOMAXPROCS on a multicore runner.
func BenchmarkMCShapleyParallel(b *testing.B) {
	train, valid := benchDataset(b, 200)
	u := importance.AccuracyUtility(func() ml.Classifier { return ml.NewKNN(5) }, train, valid)
	cfg := importance.MCShapleyConfig{Permutations: 10, Seed: 42, Truncation: 0.01}
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := importance.MCShapleyParallel(train.Len(), u, cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// What-if removal batches (scripts/bench.sh records this series in
// BENCH_whatif.json). workers=1 and workers=auto run the same 8-variant
// batch over the letters pipeline serially and fanned out, on the
// facade's warm neighbor-index store: every call after the first votes
// over the stored index. cold and warm-4000 run serve-warm's what-if
// shape — identity provenance over 4000 rows of 32 features, 100 queries,
// the baseline plus 8 variants removing 10 rows each. cold empties the
// facade's store every iteration, so each batch pays the distance kernel
// and the order table it leaves stored for the next request. warm-4000
// makes the calls a /v1/whatif makes below its handler, on a stored
// index: the store lookup by a key hashed once beforehand, then the
// batch — its lineage pass and every variant's vote.
func BenchmarkWhatIf(b *testing.B) {
	s := nde.LoadRecommendationLetters(300, 11)
	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		b.Fatal(err)
	}
	ft, err := hp.WithProvenance()
	if err != nil {
		b.Fatal(err)
	}
	validLike, err := hp.FeaturizeValidationLike(s.Valid, s.Data.Jobs, s.Data.Social, hp.Encoder)
	if err != nil {
		b.Fatal(err)
	}
	variants := make([]nde.RemovalVariant, 8)
	for v := range variants {
		rows := make([]nde.TupleID, 6)
		for r := range rows {
			rows[r] = nde.TupleID{Table: "train", Row: (v*6 + r) % hp.TrainRows}
		}
		variants[v] = nde.RemovalVariant{Name: fmt.Sprintf("drop-%d", v), Remove: rows}
	}
	counts := []int{1, 0} // 0 = automatic (GOMAXPROCS-bounded)
	for _, workers := range counts {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=auto"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nde.WhatIfParallel(ft, variants, validLike, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	mk := mixture(b, 41, 32, 32, 8)
	train, valid := mk(4000), mk(100)
	p := make([]prov.Polynomial, train.Len())
	for i := range p {
		p[i] = prov.Var(prov.TupleID{Table: "train", Row: i})
	}
	coldFt := &nde.Featurized{Data: train, Prov: p}
	r := rand.New(rand.NewSource(43))
	cold := []nde.RemovalVariant{{Name: "baseline"}}
	for v := 0; v < 8; v++ {
		rows := make([]nde.TupleID, 10)
		for j := range rows {
			rows[j] = nde.TupleID{Table: "train", Row: r.Intn(train.Len())}
		}
		cold = append(cold, nde.RemovalVariant{Name: fmt.Sprintf("drop-%d", v), Remove: rows})
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nde.ResetNeighborIndexCache()
			if _, err := nde.WhatIfParallel(coldFt, cold, valid, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-4000", func(b *testing.B) {
		st := ml.NewIndexStore()
		key := ml.KeyOf(train, valid) // hashed once, as at registration
		if _, err := st.Index(key, train, valid, 0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := st.Index(key, train, valid, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pipeline.WhatIfRemovalsWithIndex(coldFt, cold, ix, 5, valid, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// mixture returns a generator of datasets drawn from one Gaussian
// mixture seeded by seed: dim features around centers centres spread by
// scale, unit noise, labels by centre parity. Successive calls continue
// one random stream.
func mixture(b *testing.B, seed int64, dim, centers int, scale float64) func(rows int) *ml.Dataset {
	r := rand.New(rand.NewSource(seed))
	ctr := linalg.NewMatrix(centers, dim)
	for i := range ctr.Data {
		ctr.Data[i] = r.NormFloat64() * scale
	}
	return func(rows int) *ml.Dataset {
		x := linalg.NewMatrix(rows, dim)
		y := make([]int, rows)
		for i := 0; i < rows; i++ {
			c := r.Intn(centers)
			row := x.Row(i)
			for j := range row {
				row[j] = ctr.At(c, j) + r.NormFloat64()
			}
			y[i] = c % 2
		}
		d, err := ml.NewDataset(x, y)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
}

// The argsort layer (scripts/bench.sh records it in BENCH_neighbor.json):
// the first Order(0) on a fresh exact index of 100 queries × 4000 rows of
// 32 features, the serve-cold shape, at workers 1 — every query's full
// argsort. The distance matrix is computed by D2 outside the timer, so
// the order table sorts its stored rows.
func BenchmarkNeighborOrder(b *testing.B) {
	mk := mixture(b, 31, 32, 32, 8)
	train, queries := mk(4000), mk(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := ml.NewNeighborIndex(train, queries, 1)
		if err != nil {
			b.Fatal(err)
		}
		ix.D2()
		b.StartTimer()
		ix.Order(0)
	}
}

// The index-build layer (scripts/bench.sh records it in
// BENCH_neighbor.json): the first Order(0) on a fresh exact index in the
// serve-cold shape (100 queries × 4000 rows of 32 features) at workers 1,
// the way a cold score builds it — the distance kernel one block of
// queries at a time into scratch, each row argsorted there — with the
// kernel inside the timer and no distance matrix kept.
func BenchmarkNeighborBuild(b *testing.B) {
	mk := mixture(b, 31, 32, 32, 8)
	train, queries := mk(4000), mk(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := ml.NewNeighborIndex(train, queries, 1)
		if err != nil {
			b.Fatal(err)
		}
		ix.Order(0)
	}
}

// The register layer (scripts/bench.sh records it in
// BENCH_importance.json): one serve-cold POST /v1/datasets — 4000 train
// and 100 valid rows of 32 features, 10% of the train labels flipped —
// through the daemon's handler into an httptest recorder. It pays the
// body read, the decode, the dataset build and the fingerprints; the
// content-addressed registry returns the first registration's entry.
func BenchmarkServeRegister(b *testing.B) {
	mk := mixture(b, 37, 32, 32, 8)
	train, valid := mk(4000), mk(100)
	dirty, _, err := datagen.FlipDatasetLabels(train, 0.1, 3)
	if err != nil {
		b.Fatal(err)
	}
	spec := func(d *ml.Dataset) *serve.MatrixSpec {
		rows := make([][]float64, d.Len())
		for i := range rows {
			rows[i] = d.Row(i)
		}
		return &serve.MatrixSpec{X: rows, Y: d.Y}
	}
	body, err := json.Marshal(serve.RegisterRequest{Train: spec(dirty), Valid: spec(valid)})
	if err != nil {
		b.Fatal(err)
	}
	h := serve.NewServer(serve.Config{}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("register = %d: %s", rec.Code, rec.Body)
		}
	}
}

// The score-reply layer (scripts/bench.sh records it in
// BENCH_importance.json): POST /v1/importance through the daemon's
// handler into an httptest recorder, on serve-warm's dataset shape —
// 4000 train and 100 valid rows of 32 features — registered and scored
// at k=5 before the timer. hit repeats k=5, a score-store hit; new-k
// cycles k through 6..64, more values than the score store holds, so
// every request misses it and runs the recurrence over the stored
// neighbor index.
func BenchmarkServeImportance(b *testing.B) {
	mk := mixture(b, 53, 32, 32, 8)
	train, valid := mk(4000), mk(100)
	spec := func(d *ml.Dataset) *serve.MatrixSpec {
		rows := make([][]float64, d.Len())
		for i := range rows {
			rows[i] = d.Row(i)
		}
		return &serve.MatrixSpec{X: rows, Y: d.Y}
	}
	h := serve.NewServer(serve.Config{}).Handler()
	post := func(path string, v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var reg serve.RegisterResponse
	if err := json.Unmarshal(post("/v1/datasets", serve.RegisterRequest{Train: spec(train), Valid: spec(valid)}), &reg); err != nil {
		b.Fatal(err)
	}
	post("/v1/importance", serve.ImportanceRequest{Dataset: reg.ID, K: 5})
	for _, bc := range []struct {
		name string
		k    func(i int) int
	}{
		{"hit", func(int) int { return 5 }},
		{"new-k", func(i int) int { return 6 + i%59 }},
	} {
		bodies := make([][]byte, 59)
		for i := range bodies {
			var err error
			if bodies[i], err = json.Marshal(serve.ImportanceRequest{Dataset: reg.ID, K: bc.k(i)}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/importance", bytes.NewReader(bodies[i%len(bodies)])))
				if rec.Code != http.StatusOK {
					b.Fatalf("importance = %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// The learn loop on serve-cleaning's shape (scripts/bench.sh records it
// in BENCH_importance.json): 1000 train rows with a fifth of the labels
// flipped, 100 valid and 300 test rows of 32 features, random against
// kNN-Shapley, batch 10, budget 30, a 5-NN model. cold is a first
// request as the library runs it: CompareStrategiesParallel with a fresh
// (train, valid) index, built at one worker, that every kNN-Shapley round
// scores over, selecting the test rows' neighbors on every call. served
// posts the same comparison to /v1/cleaning on a registered dataset that
// one request has warmed, as repeated requests find it.
func BenchmarkCompareStrategies(b *testing.B) {
	mk := mixture(b, 61, 32, 32, 8)
	clean, valid, test := mk(1000), mk(100), mk(300)
	train, _, err := datagen.FlipDatasetLabels(clean, 0.2, 62)
	if err != nil {
		b.Fatal(err)
	}
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := ml.NewNeighborIndex(train, valid, 1)
			if err != nil {
				b.Fatal(err)
			}
			strategies := []cleaning.Strategy{&cleaning.RandomStrategy{Seed: 1}, &cleaning.KNNShapleyStrategy{Index: ix}}
			if _, err := cleaning.CompareStrategiesParallel(train, valid, test, &cleaning.LabelOracle{Truth: clean.Y},
				strategies, newModel, 10, 30, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	spec := func(d *ml.Dataset) *serve.MatrixSpec {
		rows := make([][]float64, d.Len())
		for i := range rows {
			rows[i] = d.Row(i)
		}
		return &serve.MatrixSpec{X: rows, Y: d.Y}
	}
	h := serve.NewServer(serve.Config{}).Handler()
	post := func(path string, v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var reg serve.RegisterResponse
	if err := json.Unmarshal(post("/v1/datasets", serve.RegisterRequest{
		Train: spec(train), Valid: spec(valid), Test: spec(test), Truth: clean.Y,
	}), &reg); err != nil {
		b.Fatal(err)
	}
	req := serve.CleaningRequest{Dataset: reg.ID, Strategies: []string{"random", "knn-shapley"}, Batch: 10, Budget: 30}
	post("/v1/cleaning", req)
	b.Run("served", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post("/v1/cleaning", req)
		}
	})
}

// Exact top-k on a 20k-row index with no order table: each op builds a
// fresh index over the same rows and 64 queries and asks TopK(0, 10),
// which runs the blocked kernel and the bounded heap for every query, as
// the cleaning loop's test index does (scripts/bench.sh records this
// series in BENCH_neighbor.json).
func BenchmarkNeighborTopK(b *testing.B) {
	const (
		n       = 20000
		dim     = 32
		centers = 64
		queries = 64
		k       = 10
	)
	mk := mixture(b, 17, dim, centers, 10)
	train, query := mk(n), mk(queries)
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := ml.NewNeighborIndex(train, query, 0)
			if err != nil {
				b.Fatal(err)
			}
			ix.TopK(0, k)
		}
	})
}

// The batched prediction path (a fresh neighbor index over the training
// set, voting every validation row at once) vs. row-by-row prediction on
// the same kNN.
func BenchmarkKNNPredictBatch(b *testing.B) {
	train, valid := benchDataset(b, 300)
	knn := ml.NewKNN(5)
	if err := knn.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := ml.NewNeighborIndex(train, valid, 0)
			if err != nil {
				b.Fatal(err)
			}
			ix.PredictBatch(knn.K)
		}
	})
	b.Run("rowwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for v := 0; v < valid.Len(); v++ {
				knn.Predict(valid.Row(v))
			}
		}
	})
}

// The incremental-maintenance series (scripts/bench.sh records it in
// BENCH_incremental.json): deleting one row from an n-row training set and
// recomputing kNN-Shapley via the delta path (derive the index with
// RemoveRows, re-run the closed form over the root's neighbor order) vs. the
// full recompute (fresh distance kernel + argsort, cache cold). Both paths
// are bit-identical, which internal/importance/delta_test.go asserts; the
// ratio of their times is recorded, not asserted. The delta path also
// times a fingerprint and the child's feature copy, so the derived/ runs
// time the scoring alone, at the debug loop's tombstone density: a
// 20 000-row index derived through 8-row removals to 10% and 24% dead
// rows (below the dead·4 > n compaction bound) outside the timer, scored
// at one and two workers.
func BenchmarkIncremental(b *testing.B) {
	const (
		dim     = 32 // matches the BENCH_neighbor series
		centers = 32
		queries = 64
		k       = 5
	)
	mk := mixture(b, 29, dim, centers, 8)
	for _, n := range []int{2000, 20000} {
		train, valid := mk(n), mk(queries)
		b.Run(fmt.Sprintf("delta/n=%d", n), func(b *testing.B) {
			// build the base index once; each iteration then pays only the
			// base lookup, derivation + recurrence, the steady-state
			// interactive cost
			st := warmStore(b, train, valid)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := importance.KNNShapleyDerive(k, lookupIndex(b, st, train, valid), train.Y, valid.Y, []int{i % n}, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			keep := make([]int, 0, n-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				keep = keep[:0]
				for row := 0; row < n; row++ {
					if row != i%n {
						keep = append(keep, row)
					}
				}
				reduced := train.Subset(keep)
				b.StartTimer()
				if _, err := importance.KNNShapleyParallel(k, reduced, valid, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// the derived indexes are built on first use, so a run that filters
	// the derived/ benchmarks out skips their setup
	const n = 20000
	var (
		setup    sync.Once
		dvalid   *ml.Dataset
		derived  = map[int]*ml.NeighborIndex{} // by tombstone percentage
		setupErr error
	)
	deriveAll := func() error {
		train := mk(n)
		dvalid = mk(queries)
		ix, err := ml.NewNeighborIndex(train, dvalid, 0)
		if err != nil {
			return err
		}
		ix.Order(0) // the root's order table
		r := rand.New(rand.NewSource(30))
		rows := make([]int, 8)
		for _, dead := range []int{10, 24} {
			for ix.Train.Len() > n*(100-dead)/100 {
				for i := range rows {
					rows[i] = r.Intn(ix.Train.Len())
				}
				if ix, err = ix.RemoveRows(rows); err != nil {
					return err
				}
			}
			derived[dead] = ix
		}
		return nil
	}
	for _, dead := range []int{10, 24} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("derived/dead=%dpct/workers=%d", dead, workers), func(b *testing.B) {
				setup.Do(func() { setupErr = deriveAll() })
				if setupErr != nil {
					b.Fatal(setupErr)
				}
				ix := derived[dead]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := importance.KNNShapleyWithIndex(k, ix, ix.Train.Y, dvalid.Y, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
