package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
)

// blobSplits builds, outside the server, the train and valid splits that
// registerBody(trainRows) registers: equal content in separate memory.
func blobSplits(t *testing.T, trainRows int) (train, valid *ml.Dataset) {
	t.Helper()
	body := registerBody(trainRows)
	split := func(name string) *ml.Dataset {
		spec := body[name].(map[string]any)
		d, err := ml.NewDataset(linalg.FromRows(spec["x"].([][]float64)), spec["y"].([]int))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return split("train"), split("valid")
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
// /v1/cleaning comparison after /v1/importance on that dataset reads the
// stored index in every kNN-Shapley round instead of building one.
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
