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
	"testing"

	"nde"
	"nde/internal/datagen"
	"nde/internal/exp"
	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := importance.KNNShapley(5, train, valid); err != nil {
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
// instrumentation itself costs).

func BenchmarkPipelineRunObs(b *testing.B) {
	s := nde.LoadRecommendationLetters(500, 9)
	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "on" {
				obs.Enable()
				obs.DefaultTracer().CaptureAllocs(false)
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
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "on" {
				obs.Enable()
				obs.DefaultTracer().CaptureAllocs(false)
				defer func() {
					obs.Disable()
					obs.Reset()
					obs.DefaultTracer().CaptureAllocs(true)
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := importance.KNNShapley(5, train, valid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKNNShapleyParallelObsOff(b *testing.B) {
	train, valid := benchDataset(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := importance.KNNShapleyParallel(5, train, valid, 0); err != nil {
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

// What-if removal batches: the parallel fan-out vs. the serial path on the
// same 8-variant batch. scripts/bench.sh records this series in
// BENCH_whatif.json; workers=1 is the pre-parallelization baseline.
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
// argsort. The distance matrix is computed outside the timer.
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

// The recall-vs-speed gate of the ANN layer (scripts/bench.sh records this
// series in BENCH_neighbor.json): exact vs IVF top-k per query on a 20k-row
// index. The exact path is measured with its distance matrix already cached
// — the cheapest exact can possibly be — and the IVF path must still be at
// least 5x faster while keeping recall@10 >= 0.95 (reported as the
// recall@10 metric on the ivf sub-benchmark).
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
	exact, err := ml.NewNeighborIndexSearch(train, query, 0, ml.SearchConfig{Mode: ml.SearchExact})
	if err != nil {
		b.Fatal(err)
	}
	ivf, err := ml.NewNeighborIndexSearch(train, query, 0, ml.SearchConfig{Mode: ml.SearchIVF, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// warm both indexes outside the timer (D2 matrix / IVF build), then
	// measure steady-state per-query cost
	exact.TopK(0, k)
	ivf.TopK(0, k)
	hits := 0
	for q := 0; q < queries; q++ {
		truth := map[int]bool{}
		for _, i := range exact.TopK(q, k) {
			truth[i] = true
		}
		for _, i := range ivf.TopK(q, k) {
			if truth[i] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(queries*k)
	for _, sub := range []struct {
		name string
		ix   *ml.NeighborIndex
	}{{"exact", exact}, {"ivf", ivf}} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub.ix.TopK(i%queries, k)
			}
			if sub.name == "ivf" {
				b.ReportMetric(recall, "recall@10")
			}
		})
	}
}

// The batched prediction path vs. row-by-row prediction on the same kNN.
func BenchmarkKNNPredictBatch(b *testing.B) {
	train, valid := benchDataset(b, 300)
	knn := ml.NewKNN(5)
	if err := knn.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := knn.PredictBatch(valid, 0); err != nil {
				b.Fatal(err)
			}
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

// The incremental-maintenance gate (scripts/bench.sh records this series in
// BENCH_incremental.json): deleting one row from an n-row training set and
// recomputing kNN-Shapley via the delta path (derive the index with
// RemoveRows, re-run the closed form over the merged neighbor walk) vs. the
// full recompute (fresh distance kernel + argsort, cache cold). The delta
// path must be >= 10x faster at n = 20000; both paths are bit-identical,
// which internal/importance/delta_test.go asserts.
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
			importance.ResetNeighborIndexCache()
			// warm the shared base index once; each iteration then pays only
			// the derivation + recurrence, the steady-state interactive cost
			if _, _, _, err := importance.KNNShapleyDelta(k, train, valid, nil, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := importance.KNNShapleyDelta(k, train, valid, []int{i % n}, 0); err != nil {
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
				importance.ResetNeighborIndexCache() // force the full kernel
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
}
