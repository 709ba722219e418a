package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"nde/internal/cleaning"
	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/pipeline"
	"nde/internal/prov"
)

// blobSplits builds, outside the server, the train and valid splits that
// registerBody(trainRows) registers: equal content in separate memory.
func blobSplits(t *testing.T, trainRows int) (train, valid *ml.Dataset) {
	t.Helper()
	body := registerBody(trainRows)
	return bodySplit(t, body, "train"), bodySplit(t, body, "valid")
}

// bodySplit builds the named split of a registration body.
func bodySplit(t *testing.T, body map[string]any, name string) *ml.Dataset {
	t.Helper()
	spec := body[name].(map[string]any)
	d, err := ml.NewDataset(linalg.FromRows(spec["x"].([][]float64)), spec["y"].([]int))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// encoded is v as writeJSON's encoding/json path writes it.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// withObs resets the metrics for one test and turns them on for it.
func withObs(t *testing.T) *obs.Registry {
	t.Helper()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	return obs.Default()
}

// A /v1/importance reply is the bytes encoding/json writes for the
// response over importance.KNNShapley's scores, whether the request
// builds the stored reply (miss) or writes it (hit).
func TestImportanceReplyBytes(t *testing.T) {
	r := withObs(t)
	_, ts := newTestServer(t, Config{})
	id := register(t, ts, 50)
	train, valid := blobSplits(t, 50)
	for _, k := range []int{1, 3, 7} {
		scores, err := importance.KNNShapley(k, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		want := encoded(t, ImportanceResponse{Dataset: id, K: k, Scores: scores})
		for _, pass := range []string{"miss", "hit"} {
			code, got := postRaw(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": k, "workers": 2})
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("k=%d %s: status %d, body\n%s\nwant\n%s", k, pass, code, got, want)
			}
		}
	}
	if misses, hits := r.Counter("serve_scores_misses_total").Value(), r.Counter("serve_scores_hits_total").Value(); misses != 3 || hits != 3 {
		t.Errorf("score store misses %d hits %d, want 3 and 3", misses, hits)
	}
}

// An async run's result is the stored reply: its poll reply is the one
// encoding/json writes for the run with the response inline, and the
// result decodes to importance.KNNShapley's scores, on a miss and a hit.
func TestAsyncImportanceResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts, 30)
	train, valid := blobSplits(t, 30)
	scores, err := importance.KNNShapley(3, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"miss", "hit"} {
		code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3, "async": true})
		if code != http.StatusAccepted {
			t.Fatalf("%s: async importance = %d: %v", pass, code, body)
		}
		runID, _ := body["run"].(string)
		raw := pollRun(t, ts, runID)
		want := encoded(t, RunResponse{ID: runID, Op: "ServeImportance", State: "done",
			Result: ImportanceResponse{Dataset: id, K: 3, Scores: scores}})
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: poll reply\n%s\nwant\n%s", pass, raw, want)
		}
		var rr struct{ Result ImportanceResponse }
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Result.Dataset != id || rr.Result.K != 3 || len(rr.Result.Scores) != len(scores) {
			t.Fatalf("%s: result %+v", pass, rr.Result)
		}
		for i, v := range rr.Result.Scores {
			if math.Float64bits(v) != math.Float64bits(scores[i]) {
				t.Fatalf("%s: score %d = %v, want %v", pass, i, v, scores[i])
			}
		}
	}
}

// Each Server owns its neighbor-index store: two servers in one process
// that register the same content each build its index once, and a
// /v1/cleaning comparison after /v1/importance on that dataset looks the
// stored index up for its kNN-Shapley rounds instead of building one.
func TestServersOwnTheirIndexStores(t *testing.T) {
	r := withObs(t)
	counter := func(name string) int64 { return r.Counter("importance_neighbor_index_" + name + "_total").Value() }
	for n := int64(1); n <= 2; n++ {
		_, ts := newTestServer(t, Config{})
		id := register(t, ts, 40)
		if code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3}); code != http.StatusOK {
			t.Fatalf("server %d: importance = %d: %v", n, code, body)
		}
		if misses := counter("misses"); misses != n {
			t.Fatalf("server %d: neighbor index misses %d, want %d (one per server)", n, misses, n)
		}
		hits := counter("hits")
		code, body := postJSON(t, ts.URL+"/v1/cleaning", map[string]any{
			"dataset": id, "strategies": []string{"knn-shapley"}, "batch": 5, "budget": 10,
		})
		if code != http.StatusOK {
			t.Fatalf("server %d: cleaning = %d: %v", n, code, body)
		}
		if misses := counter("misses"); misses != n {
			t.Errorf("server %d: cleaning built %d neighbor indexes, want 0", n, misses-n)
		}
		if got := counter("hits"); got <= hits {
			t.Errorf("server %d: neighbor index hits %d after cleaning, want more than %d", n, got, hits)
		}
	}
}

// fpMix is linalg.Matrix.Fingerprint's per-element step, copied so that
// fpUnmix can invert it.
func fpMix(h, v uint64) uint64 {
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	h = (h ^ v) * 0xc4ceb9fe1a85ec53
	return h ^ h>>29
}

// fpUnmix returns the word v with fpMix(h, v) == out.
func fpUnmix(h, out uint64) uint64 {
	y := out ^ out>>29 ^ out>>58
	w := y*oddInverse(0xc4ceb9fe1a85ec53) ^ h
	return (w ^ w>>33) * oddInverse(0xff51afd7ed558ccd)
}

// oddInverse returns the inverse of an odd c modulo 2^64: c itself is
// right in the low 3 bits, and each Newton step doubles them.
func oddInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// forgeLast sets the last value of x so that linalg.FromRows(x) has
// fingerprint fp, and reports whether that value is finite and small
// enough to square.
func forgeLast(x [][]float64, fp uint64) bool {
	last := x[len(x)-1]
	h := fpMix(fpMix(14695981039346656037, uint64(len(x))), uint64(len(last)))
	for r, row := range x {
		for c, v := range row {
			if r < len(x)-1 || c < len(row)-1 {
				h = fpMix(h, math.Float64bits(v))
			}
		}
	}
	v := math.Float64frombits(fpUnmix(h, fp))
	last[len(last)-1] = v
	return math.Abs(v) < 1e100
}

// A dataset forged so that its features hash to another dataset's
// neighbor-index key is scored on its own neighbors: the server's store
// compares the stored index's matrices with the request's on a hit,
// counts the collision and builds the forged dataset an index it does
// not keep, while the first dataset keeps reading the stored one. When
// the forgery also keeps the first dataset's labels, its content address
// (the dataset id) collides too: the registry compares content on the
// hit, counts the collision and gives the forgery an id of its own. B's
// what-if and cleaning replies are its own serial oracles' too, and A's,
// asked after B's, are A's.
func TestForgedIndexKeyScoresOwnData(t *testing.T) {
	for _, keepLabels := range []bool{false, true} {
		t.Run(fmt.Sprintf("keepLabels=%v", keepLabels), func(t *testing.T) {
			r := withObs(t)
			_, ts := newTestServer(t, Config{})
			idA := register(t, ts, 40)
			trainA, valid := blobSplits(t, 40)
			sameForgeScores(t, "A", importanceScores(t, ts, idA, 3), 3, trainA, valid)

			bodyB, trainB := forgeDataset(t, keepLabels)
			code, body := postJSON(t, ts.URL+"/v1/datasets", bodyB)
			idB, _ := body["id"].(string)
			if code != http.StatusOK || idB == idA {
				t.Fatalf("register B = %d, id %q (A's %q): %v", code, idB, idA, body)
			}
			wantIDCollisions := int64(0)
			if keepLabels {
				wantIDCollisions = 1
			}
			if got := r.Counter("serve_dataset_id_collisions_total").Value(); got != wantIDCollisions {
				t.Errorf("%d dataset id collisions counted, want %d", got, wantIDCollisions)
			}
			sameForgeScores(t, "B", importanceScores(t, ts, idB, 3), 3, trainB, valid)
			if got := r.Counter("importance_neighbor_index_collisions_total").Value(); got != 1 {
				t.Errorf("%d index collisions counted, want 1", got)
			}
			misses := r.Counter("importance_neighbor_index_misses_total").Value()
			sameForgeScores(t, "A", importanceScores(t, ts, idA, 4), 4, trainA, valid)
			if got := r.Counter("importance_neighbor_index_misses_total").Value(); got != misses {
				t.Errorf("A's second score built %d indexes, want 0 (the stored one)", got-misses)
			}
			// The what-ifs remove some of B's shifted rows 0–9, or rows
			// 10–35, which leaves B's validation rows voting over its
			// shifted rows, so there A's and B's metrics differ. The
			// cleaning curves read accuracy 1 at every point on both
			// datasets, so that check pins B's reply to its own oracle's
			// bits but cannot tell the two datasets apart.
			variants := []WhatIfVariant{
				{Name: "shifted-a", Remove: []int{0, 3, 7}},
				{Name: "shifted-b", Remove: []int{1, 2, 9, 9}},
				{Name: "unshifted", Remove: []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
					23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35}},
			}
			var unshifted []float64
			for _, d := range []struct {
				name, id string
				train    *ml.Dataset
			}{{"B", idB, trainB}, {"A", idA, trainA}} {
				got := whatIfReply(t, ts, d.id, variants)
				sameWhatIf(t, d.name, got, variants, d.train, valid)
				unshifted = append(unshifted, *got.Results[2].Metric)
				sameCleaning(t, d.name, cleaningReply(t, ts, d.id), d.train, valid)
			}
			if unshifted[0] == unshifted[1] {
				t.Fatalf("A's and B's what-if removing rows 10–35 agree (%v): the check cannot tell them apart", unshifted[0])
			}
			// registering either again finds its own content under its own id
			if id := register(t, ts, 40); id != idA {
				t.Errorf("A registered again: id %q, want %q", id, idA)
			}
			if code, body := postJSON(t, ts.URL+"/v1/datasets", bodyB); code != http.StatusOK || body["id"] != idB {
				t.Errorf("B registered again = %d, id %v, want %q", code, body["id"], idB)
			}
		})
	}
}

// A forgery of A's id registered after A left the registry takes A's id,
// and reads none of the replies stored for A: the stores key their
// entries by the dataset's registration number, not by its id.
func TestForgedIDAfterEvictionScoresOwnData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	idA := register(t, ts, 40)
	trainA, valid := blobSplits(t, 40)
	sameForgeScores(t, "A", importanceScores(t, ts, idA, 3), 3, trainA, valid)
	for n := 41; n <= 40+maxDatasets; n++ {
		register(t, ts, n)
	}
	if code, _ := postRaw(t, ts.URL+"/v1/importance", map[string]any{"dataset": idA, "k": 3}); code != http.StatusNotFound {
		t.Fatalf("A is still registered (%d) after %d more registrations", code, maxDatasets)
	}
	bodyB, trainB := forgeDataset(t, true)
	code, body := postJSON(t, ts.URL+"/v1/datasets", bodyB)
	idB, _ := body["id"].(string)
	if code != http.StatusOK || idB != idA {
		t.Fatalf("register B = %d, id %q, want A's %q", code, idB, idA)
	}
	sameForgeScores(t, "B", importanceScores(t, ts, idB, 3), 3, trainB, valid)
}

// importanceScores answers POST /v1/importance for one dataset and k.
func importanceScores(t *testing.T, ts *httptest.Server, id string, k int) []float64 {
	t.Helper()
	code, raw := postRaw(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": k})
	var resp ImportanceResponse
	if err := json.Unmarshal(raw, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("importance %s k=%d = %d (%v): %s", id, k, code, err, raw)
	}
	return resp.Scores
}

// sameForgeScores fails unless got is importance.KNNShapley's answer on
// (train, valid) bit for bit.
func sameForgeScores(t *testing.T, what string, got []float64, k int, train, valid *ml.Dataset) {
	t.Helper()
	want, err := importance.KNNShapley(k, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if i >= len(got) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s k=%d: %d scores, row %d differs from importance.KNNShapley: %v", what, k, len(got), i, want[i])
		}
	}
}

// whatIfReply answers POST /v1/whatif for one dataset and variant list.
func whatIfReply(t *testing.T, ts *httptest.Server, id string, variants []WhatIfVariant) WhatIfResponse {
	t.Helper()
	code, raw := postRaw(t, ts.URL+"/v1/whatif", WhatIfRequest{Dataset: id, Variants: variants})
	var resp WhatIfResponse
	if err := json.Unmarshal(raw, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("whatif %s = %d (%v): %s", id, code, err, raw)
	}
	return resp
}

// sameWhatIf fails unless got is pipeline.WhatIfRemovalsConfig's answer
// with ForceRebuild at one worker over train's identity provenance, in
// metric bits and survivor counts.
func sameWhatIf(t *testing.T, what string, got WhatIfResponse, variants []WhatIfVariant, train, valid *ml.Dataset) {
	t.Helper()
	p := make([]prov.Polynomial, train.Len())
	for i := range p {
		p[i] = prov.Var(prov.TupleID{Table: "train", Row: i})
	}
	vs := []pipeline.RemovalVariant{{Name: "baseline"}}
	for _, v := range variants {
		rv := pipeline.RemovalVariant{Name: v.Name}
		for _, row := range v.Remove {
			rv.Remove = append(rv.Remove, prov.TupleID{Table: "train", Row: row})
		}
		vs = append(vs, rv)
	}
	want, err := pipeline.WhatIfRemovalsConfig(&pipeline.Featurized{Data: train, Prov: p}, vs, newModel, valid,
		pipeline.WhatIfConfig{ForceRebuild: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Baseline) != math.Float64bits(want[0].Metric) || len(got.Results) != len(want)-1 {
		t.Fatalf("%s what-if: baseline %v and %d results, oracle %v and %d", what, got.Baseline, len(got.Results), want[0].Metric, len(want)-1)
	}
	for i, res := range got.Results {
		exp := want[i+1]
		if res.Metric == nil {
			t.Fatalf("%s what-if %q: null metric, oracle %v", what, res.Name, exp.Metric)
		}
		if res.Name != exp.Name || res.Surviving != exp.Surviving || math.Float64bits(*res.Metric) != math.Float64bits(exp.Metric) {
			t.Fatalf("%s what-if %q: %d surviving, metric %v; oracle %q: %d, %v", what, res.Name, res.Surviving, *res.Metric, exp.Name, exp.Surviving, exp.Metric)
		}
	}
}

// cleaningReply answers POST /v1/cleaning with random and knn-shapley,
// batch 5, budget 20, for one dataset.
func cleaningReply(t *testing.T, ts *httptest.Server, id string) CleaningResponse {
	t.Helper()
	code, raw := postRaw(t, ts.URL+"/v1/cleaning", CleaningRequest{
		Dataset: id, Strategies: []string{"random", "knn-shapley"}, Batch: 5, Budget: 20,
	})
	var resp CleaningResponse
	if err := json.Unmarshal(raw, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("cleaning %s = %d (%v): %s", id, code, err, raw)
	}
	return resp
}

// sameCleaning fails unless got is cleaning.CompareStrategiesParallel's
// answer at one worker on (train, valid) and registerBody(40)'s test
// split, with a label oracle over its truth, in every curve point's bits
// and the AUC.
func sameCleaning(t *testing.T, what string, got CleaningResponse, train, valid *ml.Dataset) {
	t.Helper()
	body := registerBody(40)
	strategies := []cleaning.Strategy{&cleaning.RandomStrategy{Seed: 1}, &cleaning.KNNShapleyStrategy{}}
	want, err := cleaning.CompareStrategiesParallel(train, valid, bodySplit(t, body, "test"), &cleaning.LabelOracle{Truth: body["truth"].([]int)},
		strategies, newModel, 5, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("%s cleaning: %d results, oracle %d", what, len(got.Results), len(want))
	}
	for i, res := range got.Results {
		exp := want[i]
		if res.Strategy != exp.Strategy || len(res.Curve) != len(exp.Curve) ||
			math.Float64bits(res.AUC) != math.Float64bits(cleaning.AreaUnderCurve(exp.Curve)) {
			t.Fatalf("%s cleaning %s: AUC %v over %d points, oracle %s AUC %v over %d", what, res.Strategy, res.AUC, len(res.Curve),
				exp.Strategy, cleaning.AreaUnderCurve(exp.Curve), len(exp.Curve))
		}
		for j, pt := range res.Curve {
			if pt.Cleaned != exp.Curve[j].Cleaned || math.Float64bits(pt.Accuracy) != math.Float64bits(exp.Curve[j].Accuracy) {
				t.Fatalf("%s cleaning %s point %d: %+v, oracle %+v", what, res.Strategy, j, pt, exp.Curve[j])
			}
		}
	}
}

// forgeDataset returns the registration body and training split of B:
// registerBody(40) (A) with training rows 0–9 moved by +100 (or a little
// more, until the solved value is usable) in the first feature, label 1
// flipped unless B keeps A's labels, and the last value solved so B's
// training features hash to A's, and so to A's neighbor-index key.
func forgeDataset(t *testing.T, keepLabels bool) (map[string]any, *ml.Dataset) {
	t.Helper()
	trainA, valid := blobSplits(t, 40)
	specA := registerBody(40)["train"].(map[string]any)
	yB := append([]int(nil), specA["y"].([]int)...)
	if !keepLabels {
		yB[1] = 1 - yB[1]
	}
	var xB [][]float64
	for shift := 100.0; xB == nil; shift++ {
		xB = nil
		for i, row := range specA["x"].([][]float64) {
			row = append([]float64(nil), row...)
			if i < 10 {
				row[0] += shift
			}
			xB = append(xB, row)
		}
		if !forgeLast(xB, trainA.X.Fingerprint()) {
			xB = nil
		}
	}
	trainB, err := ml.NewDataset(linalg.FromRows(xB), yB)
	if err != nil {
		t.Fatal(err)
	}
	if ml.KeyOf(trainB, valid) != ml.KeyOf(trainA, valid) {
		t.Fatal("forged training features do not hash to A's index key")
	}
	body := registerBody(40)
	body["train"] = map[string]any{"x": xB, "y": yB}
	return body, trainB
}
