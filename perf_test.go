package nde_test

import (
	"testing"

	"nde"
	"nde/internal/ml"
)

// Batched prediction (a fresh NeighborIndex and its PredictBatch) once
// LOST to row-by-row KNN.Predict (1.30ms/282KB vs
// 1.18ms/185KB per op) because it allocated quickselect arenas and vote
// buffers per query. With per-worker scratch the batched path must
// allocate strictly less, in count and in bytes — deterministic numbers
// that guard against the per-query scratch returning. The wall-clock
// times are only logged: at this 300-letter size the two paths are
// within scheduler noise of each other, so an ordering assertion failed
// about one run in five on unchanged code. The speed gap is gated where
// it is measurable, by BenchmarkKNNPredictBatch/{batch,rowwise} in
// BENCH_importance.json.
func TestPredictBatchBeatsRowwise(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven comparison skipped in -short mode")
	}
	s := nde.LoadRecommendationLetters(300, 7)
	train, valid, _, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	knn := ml.NewKNN(5)
	if err := knn.Fit(train); err != nil {
		t.Fatal(err)
	}
	predictBatch := func() ([]int, error) {
		ix, err := ml.NewNeighborIndex(train, valid, 1)
		if err != nil {
			return nil, err
		}
		return ix.PredictBatch(knn.K), nil
	}
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := predictBatch(); err != nil {
				b.Fatal(err)
			}
		}
	})
	rowwise := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for v := 0; v < valid.Len(); v++ {
				knn.Predict(valid.Row(v))
			}
		}
	})
	batchBytes, batchAllocs := batch.AllocedBytesPerOp(), batch.AllocsPerOp()
	rowBytes, rowAllocs := rowwise.AllocedBytesPerOp(), rowwise.AllocsPerOp()
	t.Logf("batch:   %d ns/op, %d B/op, %d allocs/op", batch.NsPerOp(), batchBytes, batchAllocs)
	t.Logf("rowwise: %d ns/op, %d B/op, %d allocs/op", rowwise.NsPerOp(), rowBytes, rowAllocs)
	if batchAllocs >= rowAllocs {
		t.Errorf("batched prediction allocates %d times/op, rowwise %d — batch must be strictly lower", batchAllocs, rowAllocs)
	}
	if batchBytes >= rowBytes {
		t.Errorf("batched prediction allocates %d B/op, rowwise %d — batch must be strictly lower", batchBytes, rowBytes)
	}
	// and the answers agree, so the win is not bought with wrong results
	got, err := predictBatch()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < valid.Len(); v++ {
		if want := knn.Predict(valid.Row(v)); got[v] != want {
			t.Fatalf("query %d: batch %d vs rowwise %d", v, got[v], want)
		}
	}
}
