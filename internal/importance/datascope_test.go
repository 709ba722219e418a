package importance

import (
	"math"
	"math/rand"
	"testing"

	"nde/internal/encode"
	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/pipeline"
)

// mapPipelineFixture builds a pure map pipeline (no joins): each source
// tuple produces exactly one output row, so Datascope's provenance
// aggregation is *exact* and must equal the exact Shapley value over source
// tuples of the kNN utility.
func mapPipelineFixture(t *testing.T, n int, seed int64) (*pipeline.Pipeline, *pipeline.Node, *pipeline.Featurized, *ml.Dataset) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]string, n)
	for i := range xs {
		c := i % 2
		xs[i] = float64(2*c-1)*2 + r.NormFloat64()
		ys[i] = []string{"neg", "pos"}[c]
	}
	src := frame.MustNew(
		frame.NewFloatSeries("x", xs, nil),
		frame.NewStringSeries("y", ys, nil),
	)
	p := pipeline.New()
	node := p.Source("train", src)
	res, err := p.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	ct := encode.NewColumnTransformer(encode.ColumnSpec{Column: "x", Encoder: encode.NewStandardScaler()})
	ft, err := pipeline.Featurize(res, ct, "y", "")
	if err != nil {
		t.Fatal(err)
	}
	// validation set in the same 1-D feature space
	vx := linalg.NewMatrix(6, 1)
	vy := make([]int, 6)
	for i := 0; i < 6; i++ {
		c := i % 2
		vy[i] = c
		scaled := (float64(2*c-1)*2 - 0) / 2 // roughly in scaled units
		vx.Set(i, 0, scaled+0.1*r.NormFloat64())
	}
	valid, _ := ml.NewDataset(vx, vy)
	return p, node, ft, valid
}

func TestDatascopeExactOnMapPipeline(t *testing.T) {
	_, _, ft, valid := mapPipelineFixture(t, 8, 71)
	scores, err := Datascope(ft, valid, "train", 8, DatascopeConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// map pipeline: provenance groups are singletons; Datascope must equal
	// the exact Shapley values of the kNN utility over the featurized rows
	exact, err := ExactShapley(8, KNNUtility(1, ft.Data, valid))
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(scores[i]-exact[i]) > 1e-9 {
			t.Errorf("datascope[%d] = %v, exact %v", i, scores[i], exact[i])
		}
	}
}

func TestDatascopeAggModes(t *testing.T) {
	// join pipeline: one jobs tuple supports two outputs; sum vs mean differ
	train := frame.MustNew(
		frame.NewIntSeries("job_id", []int64{10, 10, 20}, nil),
		frame.NewFloatSeries("x", []float64{-2, -1.8, 2}, nil),
		frame.NewStringSeries("y", []string{"neg", "neg", "pos"}, nil),
	)
	jobs := frame.MustNew(
		frame.NewIntSeries("job_id", []int64{10, 20}, nil),
		frame.NewStringSeries("sector", []string{"a", "b"}, nil),
	)
	p := pipeline.New()
	j := p.Join(p.Source("train", train), p.Source("jobs", jobs), "job_id", frame.InnerJoin)
	res, err := p.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	ct := encode.NewColumnTransformer(encode.ColumnSpec{Column: "x", Encoder: encode.NewStandardScaler()})
	ft, err := pipeline.Featurize(res, ct, "y", "")
	if err != nil {
		t.Fatal(err)
	}
	vx := linalg.FromRows([][]float64{{-1}, {1}})
	valid, _ := ml.NewDataset(vx, []int{0, 1})
	sum, err := Datascope(ft, valid, "jobs", 2, DatascopeConfig{K: 1, Aggregate: AggSum})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := Datascope(ft, valid, "jobs", 2, DatascopeConfig{K: 1, Aggregate: AggMean})
	if err != nil {
		t.Fatal(err)
	}
	// jobs[0] supports 2 outputs: sum = 2 * mean
	if math.Abs(sum[0]-2*mean[0]) > 1e-9 {
		t.Errorf("sum[0]=%v mean[0]=%v", sum[0], mean[0])
	}
	// jobs[1] supports 1 output: sum = mean
	if math.Abs(sum[1]-mean[1]) > 1e-9 {
		t.Errorf("sum[1]=%v mean[1]=%v", sum[1], mean[1])
	}
}

func TestDatascopeErrors(t *testing.T) {
	_, _, ft, valid := mapPipelineFixture(t, 6, 72)
	if _, err := Datascope(ft, valid, "train", 0, DatascopeConfig{}); err == nil {
		t.Error("expected error for tableRows=0")
	}
}

// Datascope vs. exact pipeline Shapley on a map pipeline with label noise:
// the rankings should agree on who is most harmful.
func TestDatascopeFindsInjectedErrorOnPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	n := 20
	xs := make([]float64, n)
	ys := make([]string, n)
	for i := range xs {
		c := i % 2
		xs[i] = float64(2*c-1)*2.5 + 0.5*r.NormFloat64()
		ys[i] = []string{"neg", "pos"}[c]
	}
	ys[4] = "pos" // inject one label error (true class is neg)
	src := frame.MustNew(
		frame.NewFloatSeries("x", xs, nil),
		frame.NewStringSeries("y", ys, nil),
	)
	p := pipeline.New()
	node := p.Source("train", src)
	res, err := p.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	ct := encode.NewColumnTransformer(encode.ColumnSpec{Column: "x", Encoder: encode.NewStandardScaler()})
	ft, err := pipeline.Featurize(res, ct, "y", "")
	if err != nil {
		t.Fatal(err)
	}
	vx := linalg.NewMatrix(10, 1)
	vy := make([]int, 10)
	for i := 0; i < 10; i++ {
		c := i % 2
		vy[i] = c
		vx.Set(i, 0, float64(2*c-1)+0.2*r.NormFloat64())
	}
	valid, _ := ml.NewDataset(vx, vy)
	scores, err := Datascope(ft, valid, "train", n, DatascopeConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if worst := scores.BottomK(1)[0]; worst != 4 {
		t.Errorf("most harmful tuple = %d, want 4 (scores=%v)", worst, scores)
	}
}

func TestGroupShapleyExactOnMapPipeline(t *testing.T) {
	// map pipeline: every group is a singleton, so group Shapley must equal
	// the exact per-row Shapley of the kNN utility
	_, _, ft, valid := mapPipelineFixture(t, 8, 801)
	grouped, err := GroupShapley(ft, valid, "train", 8, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactShapley(8, KNNUtility(1, ft.Data, valid))
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(grouped[i]-exact[i]) > 1e-9 {
			t.Errorf("grouped[%d] = %v, exact %v", i, grouped[i], exact[i])
		}
	}
}

func TestGroupShapleyForkPipeline(t *testing.T) {
	// fork pipeline: a join against a two-row table duplicates every
	// source row into two outputs, so each group has two outputs per
	// tuple; efficiency must hold over the grouped game
	r := rand.New(rand.NewSource(802))
	n := 6
	xs := make([]float64, n)
	ys := make([]string, n)
	keys := make([]string, n)
	for i := range xs {
		c := i % 2
		xs[i] = float64(2*c-1)*2 + r.NormFloat64()
		ys[i] = []string{"neg", "pos"}[c]
		keys[i] = "k"
	}
	src := frame.MustNew(
		frame.NewFloatSeries("x", xs, nil),
		frame.NewStringSeries("y", ys, nil),
		frame.NewStringSeries("key", keys, nil),
	)
	copies := frame.MustNew(frame.NewStringSeries("key", []string{"k", "k"}, nil))
	p := pipeline.New()
	forked := p.Join(p.Source("train", src), p.Source("copies", copies), "key", frame.InnerJoin)
	res, err := p.Run(forked)
	if err != nil {
		t.Fatal(err)
	}
	ct := encode.NewColumnTransformer(encode.ColumnSpec{Column: "x", Encoder: encode.NewStandardScaler()})
	ft, err := pipeline.Featurize(res, ct, "y", "")
	if err != nil {
		t.Fatal(err)
	}
	if ft.Data.Len() != 2*n {
		t.Fatalf("forked outputs = %d", ft.Data.Len())
	}
	vx := linalg.FromRows([][]float64{{-1}, {1}})
	valid, _ := ml.NewDataset(vx, []int{0, 1})
	grouped, err := GroupShapley(ft, valid, "train", n, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// efficiency over the grouped game: Σφ = U(all outputs) − U(∅)
	all := make([]int, ft.Data.Len())
	for i := range all {
		all[i] = i
	}
	uFull, err := KNNUtility(1, ft.Data, valid)(all)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grouped.Sum()-uFull) > 1e-9 {
		t.Errorf("grouped efficiency: Σφ = %v, U(D) = %v", grouped.Sum(), uFull)
	}
}

func TestGroupShapleyMCFallback(t *testing.T) {
	_, _, ft, valid := mapPipelineFixture(t, 24, 803) // 24 groups > exact cap
	scores, err := GroupShapley(ft, valid, "train", 24, 1, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 24 {
		t.Fatalf("scores = %d", len(scores))
	}
	if _, err := GroupShapley(ft, valid, "train", 0, 1, 0, 1); err == nil {
		t.Error("expected error for tableRows=0")
	}
}
