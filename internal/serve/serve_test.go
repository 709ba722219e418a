package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nde/internal/obs"
	"nde/internal/pipeline"
	"nde/internal/prov"
)

// blobs builds a deterministic two-cluster dataset: even rows are class
// 0 near the origin, odd rows are class 1 near (4, 4).
func blobs(n int) (x [][]float64, y []int) {
	for i := 0; i < n; i++ {
		c := i % 2
		base := float64(c) * 4
		jit := float64(i%5) * 0.1
		x = append(x, []float64{base + jit, base - jit})
		y = append(y, c)
	}
	return x, y
}

// registerBody is a full registration request over the blobs geometry,
// with ~1/7 of the train labels flipped and the clean labels as truth.
func registerBody(trainRows int) map[string]any {
	tx, ty := blobs(trainRows)
	vx, vy := blobs(10)
	sx, sy := blobs(12)
	truth := append([]int(nil), ty...)
	dirty := append([]int(nil), ty...)
	for i := range dirty {
		if i%7 == 0 {
			dirty[i] = 1 - dirty[i]
		}
	}
	return map[string]any{
		"train": map[string]any{"x": tx, "y": dirty},
		"valid": map[string]any{"x": vx, "y": vy},
		"test":  map[string]any{"x": sx, "y": sy},
		"truth": truth,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postRaw posts v (marshaled) and returns status and the raw reply body.
func postRaw(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// postJSON posts v (marshaled) and returns status, parsed body.
func postJSON(t *testing.T, url string, v any) (int, map[string]any) {
	t.Helper()
	code, raw := postRaw(t, url, v)
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("non-JSON response %q: %v", raw, err)
		}
	}
	return code, out
}

func register(t *testing.T, ts *httptest.Server, trainRows int) string {
	t.Helper()
	return registerBodyID(t, ts, registerBody(trainRows))
}

// registerBodyID registers body and returns its dataset id.
func registerBodyID(t *testing.T, ts *httptest.Server, body map[string]any) string {
	t.Helper()
	code, reply := postJSON(t, ts.URL+"/v1/datasets", body)
	if code != http.StatusOK {
		t.Fatalf("register = %d: %v", code, reply)
	}
	id, _ := reply["id"].(string)
	if !strings.HasPrefix(id, "d-") {
		t.Fatalf("dataset id = %q", id)
	}
	return id
}

// Registration is content-addressed (same content, same id) and the full
// score → what-if → cleaning path works over real HTTP.
func TestEndpointsHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts, 42)
	if again := register(t, ts, 42); again != id {
		t.Errorf("re-registering identical content: id %q != %q", again, id)
	}

	code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3})
	if code != http.StatusOK {
		t.Fatalf("importance = %d: %v", code, body)
	}
	scores, _ := body["scores"].([]any)
	if len(scores) != 42 {
		t.Errorf("got %d scores, want 42", len(scores))
	}

	code, body = postJSON(t, ts.URL+"/v1/whatif", map[string]any{
		"dataset": id,
		"variants": []map[string]any{
			{"name": "drop-two", "remove": []int{0, 1}},
			{"name": "drop-none", "remove": []int{}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("whatif = %d: %v", code, body)
	}
	results, _ := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("whatif results = %v", body)
	}
	first := results[0].(map[string]any)
	if n, _ := first["surviving"].(float64); n != 40 {
		t.Errorf("drop-two surviving = %v, want 40", first["surviving"])
	}
	if _, ok := body["baseline"].(float64); !ok {
		t.Errorf("no baseline metric in %v", body)
	}

	code, body = postJSON(t, ts.URL+"/v1/cleaning", map[string]any{
		"dataset": id, "strategies": []string{"random", "knn-shapley"}, "batch": 6, "budget": 12,
	})
	if code != http.StatusOK {
		t.Fatalf("cleaning = %d: %v", code, body)
	}
	results, _ = body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("cleaning results = %v", body)
	}
	for _, r := range results {
		m := r.(map[string]any)
		if curve, _ := m["curve"].([]any); len(curve) < 2 {
			t.Errorf("strategy %v curve too short: %v", m["strategy"], m["curve"])
		}
	}
}

// The registry keeps the last maxDatasets registrations: one more evicts
// the oldest, whose id then answers 404 not_found, and the rest answer.
func TestRegistryEvictsOldestDataset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ids := make([]string, maxDatasets+1)
	seen := map[string]bool{}
	for i := range ids {
		ids[i] = register(t, ts, 20+i)
		if seen[ids[i]] {
			t.Fatalf("registration %d reused id %s", i, ids[i])
		}
		seen[ids[i]] = true
	}
	code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": ids[0], "k": 3})
	if code != http.StatusNotFound || body["class"] != "not_found" {
		t.Errorf("oldest dataset = %d %v, want 404 not_found", code, body)
	}
	for _, id := range ids[1:] {
		if code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3}); code != http.StatusOK {
			t.Errorf("dataset %s = %d %v, want 200", id, code, body)
		}
	}
}

// CSV registration parses features and the named label column.
func TestRegisterCSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var sb strings.Builder
	sb.WriteString("f1,f2,label\n")
	for i := 0; i < 20; i++ {
		c := i % 2
		fmt.Fprintf(&sb, "%g,%g,%d\n", float64(c)*4+float64(i%5)*0.1, float64(c)*4, c)
	}
	csv := sb.String()
	code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"train": map[string]any{"csv": csv},
		"valid": map[string]any{"csv": csv},
	})
	if code != http.StatusOK {
		t.Fatalf("csv register = %d: %v", code, body)
	}
	if rows, _ := body["train_rows"].(float64); rows != 20 {
		t.Errorf("train_rows = %v, want 20", body["train_rows"])
	}
	if dim, _ := body["dim"].(float64); dim != 2 {
		t.Errorf("dim = %v, want 2", body["dim"])
	}

	// a missing label column is the client's fault, with a machine class
	code, body = postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"train": map[string]any{"csv": "a,b\n1,2\n"},
		"valid": map[string]any{"csv": csv},
	})
	if code != http.StatusBadRequest || body["class"] != "shape_mismatch" {
		t.Errorf("missing label column = %d %v, want 400 shape_mismatch", code, body)
	}

	// an empty feature cell reads as NaN, which the split's dataset
	// refuses as a non-finite feature
	code, body = postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"train": map[string]any{"csv": csv},
		"valid": map[string]any{"csv": "f1,f2,label\n1,,0\n4,4,1\n"},
	})
	if code != http.StatusBadRequest || body["class"] != "non_finite" {
		t.Errorf("empty feature cell = %d %v, want 400 non_finite", code, body)
	}
}

// Malformed bodies, unknown fields, oversized bodies, unknown datasets
// and wrong methods all map to distinct classes.
func TestRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048})

	resp, err := http.Post(ts.URL+"/v1/importance", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e); resp.StatusCode != http.StatusBadRequest || e.Class != "bad_request" {
		t.Errorf("malformed JSON = %d class %q, want 400 bad_request", resp.StatusCode, e.Class)
	}
	resp.Body.Close()

	code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": "d-x", "bogus": 1})
	if code != http.StatusBadRequest || body["class"] != "bad_request" {
		t.Errorf("unknown field = %d %v, want 400 bad_request", code, body)
	}

	big := map[string]any{"dataset": strings.Repeat("x", 4096)}
	code, body = postJSON(t, ts.URL+"/v1/importance", big)
	if code != http.StatusRequestEntityTooLarge || body["class"] != "body_too_large" {
		t.Errorf("oversized body = %d %v, want 413 body_too_large", code, body)
	}

	code, body = postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": "d-missing"})
	if code != http.StatusNotFound || body["class"] != "not_found" {
		t.Errorf("unknown dataset = %d %v, want 404 not_found", code, body)
	}

	// a strategy named twice would run twice under one budget slot
	_, cs := newTestServer(t, Config{})
	id := register(t, cs, 20)
	code, body = postJSON(t, cs.URL+"/v1/cleaning", map[string]any{
		"dataset": id, "strategies": []string{"random", "knn-shapley", "random"}, "budget": 10,
	})
	if code != http.StatusBadRequest || body["class"] != "bad_request" {
		t.Errorf("repeated strategy = %d %v, want 400 bad_request", code, body)
	}

	// a negative truth label is refused at registration, classified like
	// a negative train label, before any cleaning run can reach it
	_, rs := newTestServer(t, Config{})
	negTrain, negTruth := registerBody(8), registerBody(8)
	negTrain["train"].(map[string]any)["y"].([]int)[2] = -1
	negTruth["truth"].([]int)[2] = -1
	code, trainBody := postJSON(t, rs.URL+"/v1/datasets", negTrain)
	if code != http.StatusBadRequest || trainBody["class"] != "degenerate_input" {
		t.Errorf("negative train label = %d %v, want 400 degenerate_input", code, trainBody)
	}
	code, body = postJSON(t, rs.URL+"/v1/datasets", negTruth)
	if code != http.StatusBadRequest || body["class"] != trainBody["class"] {
		t.Errorf("negative truth label = %d %v, want 400 %v", code, body, trainBody["class"])
	}

	for _, path := range []string{"/v1/datasets", "/v1/importance", "/v1/whatif", "/v1/cleaning"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "POST" {
			t.Errorf("GET %s Allow = %q, want POST", path, allow)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs/r-000001", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed || resp2.Header.Get("Allow") != "GET, HEAD" {
		t.Errorf("POST /v1/runs = %d Allow %q, want 405 GET, HEAD", resp2.StatusCode, resp2.Header.Get("Allow"))
	}
}

// Degenerate data is rejected with the nderr class, not a 500: here a
// bad k (larger than the training set) surfaces as bad_k.
func TestComputeErrorClass(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts, 20)
	code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 1000})
	if code != http.StatusBadRequest || body["class"] != "bad_k" {
		t.Errorf("bad k = %d %v, want 400 bad_k", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/whatif", map[string]any{
		"dataset":  id,
		"variants": []map[string]any{{"name": "oob", "remove": []int{99}}},
	})
	if code != http.StatusBadRequest || body["class"] != "bad_request" {
		t.Errorf("out-of-range removal = %d %v, want 400 bad_request", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/cleaning", map[string]any{"dataset": id, "strategies": []string{"nope"}})
	if code != http.StatusBadRequest || body["class"] != "bad_request" {
		t.Errorf("unknown strategy = %d %v, want 400 bad_request", code, body)
	}
}

// An async request returns 202 with a run id that polls through
// running/done and delivers the same result shape as the sync path.
func TestAsyncRunLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts, 30)
	code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3, "async": true})
	if code != http.StatusAccepted {
		t.Fatalf("async importance = %d: %v", code, body)
	}
	runID, _ := body["run"].(string)
	if !strings.HasPrefix(runID, "r-") {
		t.Fatalf("run id = %q", runID)
	}

	var rr RunResponse
	if err := json.Unmarshal(pollRun(t, ts, runID), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.State != "done" {
		t.Fatalf("async run failed: %s (%s)", rr.Error, rr.Class)
	}
	res, _ := rr.Result.(map[string]any)
	if scores, _ := res["scores"].([]any); len(scores) != 30 {
		t.Fatalf("async result scores = %d, want 30", len(scores))
	}

	resp, err := http.Get(ts.URL + "/v1/runs/r-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run = %d, want 404", resp.StatusCode)
	}
}

// pollRun polls /v1/runs/{id} until the run leaves state "running" and
// returns that poll's raw reply.
func pollRun(t *testing.T, ts *httptest.Server, runID string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + runID)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var rr RunResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.State != "running" {
			return raw
		}
		if time.Now().After(deadline) {
			t.Fatal("async run never finished")
		}
		runtime.Gosched()
	}
}

// With the budget's slots and queue exhausted, new computations shed
// with 429 and class "busy" instead of queueing without bound.
func TestBudgetExhausted429(t *testing.T) {
	s, ts := newTestServer(t, Config{Slots: 1, Queue: -1})
	id := register(t, ts, 20)
	// Occupy the only slot directly so the test is deterministic.
	if err := s.budget.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.budget.Release()
	code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id})
	if code != http.StatusTooManyRequests || body["class"] != "busy" {
		t.Errorf("exhausted budget = %d %v, want 429 busy", code, body)
	}
}

// Concurrent identical requests share one artifact build: one miss on
// the score store, every other caller a hit, and one neighbor-index
// build underneath — which a following what-if on the same dataset
// reuses instead of building its own.
func TestConcurrentRequestsShareBuild(t *testing.T) {
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	_, ts := newTestServer(t, Config{Slots: 8})
	id := register(t, ts, 60)

	const callers = 6
	var wg sync.WaitGroup
	codes := make([]int, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			codes[c], _ = postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3})
		}(c)
	}
	wg.Wait()
	for c, code := range codes {
		if code != http.StatusOK {
			t.Errorf("caller %d = %d", c, code)
		}
	}
	r := obs.Default()
	if misses := r.Counter("serve_scores_misses_total").Value(); misses != 1 {
		t.Errorf("score store misses = %d, want 1 (duplicate builds)", misses)
	}
	if hits := r.Counter("serve_scores_hits_total").Value(); hits != callers-1 {
		t.Errorf("score store hits = %d, want %d", hits, callers-1)
	}
	if misses := r.Counter("importance_neighbor_index_misses_total").Value(); misses != 1 {
		t.Errorf("neighbor index misses = %d, want 1", misses)
	}

	hits := r.Counter("importance_neighbor_index_hits_total").Value()
	code, body := postJSON(t, ts.URL+"/v1/whatif", map[string]any{
		"dataset": id, "variants": []map[string]any{{"name": "drop", "remove": []int{0, 1}}},
	})
	if code != http.StatusOK {
		t.Fatalf("whatif = %d %v", code, body)
	}
	if misses := r.Counter("importance_neighbor_index_misses_total").Value(); misses != 1 {
		t.Errorf("neighbor index misses after whatif = %d, want 1 (what-if rebuilt the scored index)", misses)
	}
	if got := r.Counter("importance_neighbor_index_hits_total").Value(); got <= hits {
		t.Errorf("neighbor index hits after whatif = %d, want more than %d", got, hits)
	}
}

// A request arriving while an identical request's build is in flight
// blocks on that build (counted as a wait) and is served its artifact —
// deterministic via a white-box flight that blocks until released.
func TestSharedBuildWaits(t *testing.T) {
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	s, ts := newTestServer(t, Config{})
	id := register(t, ts, 30)
	d, ok := s.lookup(id)
	if !ok {
		t.Fatal("registered dataset not found")
	}

	built := make(chan struct{})
	release := make(chan struct{})
	var flight sync.WaitGroup
	flight.Add(1)
	go func() {
		defer flight.Done()
		_, _ = s.scores.GetOrBuild(scoreKey{dataset: d.seq, k: 3}, func() (reply, error) {
			close(built)
			<-release
			return encodeReply(ImportanceResponse{Dataset: id, K: 3, Scores: []float64{0.5}})
		})
	}()
	<-built

	done := make(chan struct{})
	var code int
	var body map[string]any
	go func() {
		defer close(done)
		code, body = postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3})
	}()
	r := obs.Default()
	deadline := time.Now().Add(5 * time.Second)
	for r.Counter("serve_scores_waits_total").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never blocked on the in-flight build")
		}
		runtime.Gosched()
	}
	close(release)
	<-done
	flight.Wait()
	if code != http.StatusOK {
		t.Fatalf("waiting request = %d %v, want 200", code, body)
	}
	scores, ok := body["scores"].([]any)
	if !ok || len(scores) != 1 || scores[0].(float64) != 0.5 {
		t.Errorf("waiting request scores = %v, want the shared flight's artifact [0.5]", body["scores"])
	}
	if misses := r.Counter("serve_scores_misses_total").Value(); misses != 1 {
		t.Errorf("score store misses = %d, want 1 (the waiter must not rebuild)", misses)
	}
}

// Drain flips readiness, sheds new computations with class "draining",
// and blocks until in-flight computations finish.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := register(t, ts, 20)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", resp.StatusCode)
	}

	// simulate an in-flight computation so Drain has something to wait on
	s.runs.track()
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		runtime.Gosched()
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id})
	if code != http.StatusServiceUnavailable || body["class"] != "draining" {
		t.Errorf("compute during drain = %d %v, want 503 draining", code, body)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned with a computation still in flight")
	default:
	}
	s.runs.untrack()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last computation finished")
	}
}

// Computations racing Drain from several goroutines, sync and async:
// each is either refused with 503 "draining" or finishes before Drain
// returns, and none starts after it.
func TestDrainAdmissionRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		s := NewServer(Config{Slots: 64, Queue: 64})
		var inflight, late atomic.Int64
		var drained atomic.Bool
		fn := func() (any, error) {
			if drained.Load() {
				late.Add(1)
			}
			inflight.Add(1)
			runtime.Gosched()
			inflight.Add(-1)
			return struct{}{}, nil
		}
		start := make(chan struct{})
		var callers sync.WaitGroup
		for g := 0; g < 8; g++ {
			callers.Add(1)
			go func(g int) {
				defer callers.Done()
				<-start
				for i := 0; i < 40; i++ {
					rec := httptest.NewRecorder()
					async := (g+i)%2 == 1
					s.compute(rec, httptest.NewRequest(http.MethodPost, "/v1/importance", nil), "DrainRace", async, 0, 0, fn)
					switch rec.Code {
					case http.StatusOK, http.StatusAccepted:
					case http.StatusServiceUnavailable:
						if !strings.Contains(rec.Body.String(), `"draining"`) {
							t.Errorf("503 without the draining class: %s", rec.Body)
						}
					default:
						t.Errorf("compute = %d %s, want 200, 202 or 503 draining", rec.Code, rec.Body)
					}
				}
			}(g)
		}
		close(start)
		runtime.Gosched()
		s.Drain()
		drained.Store(true)
		if n := inflight.Load(); n != 0 {
			t.Fatalf("iteration %d: Drain returned with %d computations in flight", iter, n)
		}
		callers.Wait()
		if n := late.Load(); n != 0 {
			t.Fatalf("iteration %d: %d computations started after Drain returned", iter, n)
		}
	}
}

// A computation that panics, sync or async, does not take the daemon
// down: the sync request gets the 500 envelope, the async run ends in
// state "error", both ledger ops are recorded, the budget and drain
// slots come back, and the server keeps serving until Drain returns.
func TestComputePanicRecovered(t *testing.T) {
	var ledger bytes.Buffer
	prev := obs.SetLedger(obs.NewLedger(&ledger, obs.LedgerMeta{Cmd: "serve-test", Git: "-"}))
	t.Cleanup(func() { obs.SetLedger(prev) })
	s, ts := newTestServer(t, Config{Slots: 1, Queue: -1})
	boom := func() (any, error) { panic("injected fault") }
	req := func() *http.Request { return httptest.NewRequest(http.MethodPost, "/v1/importance", nil) }

	rec := httptest.NewRecorder()
	s.compute(rec, req(), "PanicSync", false, 0, 0, boom)
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError ||
		e.Class != "error" || !strings.Contains(e.Error, "injected fault") {
		t.Errorf("sync panic = %d %s, want 500 with class error naming the panic", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	s.compute(rec, req(), "PanicAsync", true, 0, 0, boom)
	var acc AsyncAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("async panic = %d %s, want 202", rec.Code, rec.Body)
	}
	run, ok := s.runs.get(acc.Run)
	if !ok {
		t.Fatalf("run %q not registered", acc.Run)
	}
	select {
	case <-run.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the panicking async run never finished")
	}
	if !errors.Is(run.err, errComputePanic) {
		t.Errorf("async run error = %v, want errComputePanic", run.err)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + acc.Run)
	if err != nil {
		t.Fatal(err)
	}
	var rr RunResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil || rr.State != "error" || rr.Class != "error" {
		t.Errorf("polled run = %+v (%v), want state error, class error", rr, err)
	}

	// the only budget slot is free again: a queue-less server would 429
	id := register(t, ts, 20)
	if code, body := postJSON(t, ts.URL+"/v1/importance", map[string]any{"dataset": id, "k": 3}); code != http.StatusOK {
		t.Errorf("importance after the panics = %d %v, want 200", code, body)
	}
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return: a panicked computation kept its drain slot")
	}

	obs.SetLedger(prev)
	errOps := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(ledger.String()), "\n") {
		var r obs.LedgerRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("ledger line %q: %v", line, err)
		}
		if r.Type == "op" {
			errOps[r.Op] = r.Err
		}
	}
	for _, op := range []string{"PanicSync", "PanicAsync"} {
		if class, ok := errOps[op]; !ok || class != "error" {
			t.Errorf("ledger op %s: recorded %v, class %q; want class error", op, ok, class)
		}
	}
}

// POST /v1/datasets records one ServeRegister op, whose clock covers the
// decode, with the train row count: on either decoder, and with no rows
// when registration fails. A body that fails to decode records no op.
func TestRegisterLedgerOp(t *testing.T) {
	var ledger bytes.Buffer
	prev := obs.SetLedger(obs.NewLedger(&ledger, obs.LedgerMeta{Cmd: "serve-test", Git: "-"}))
	t.Cleanup(func() { obs.SetLedger(prev) })
	h := NewServer(Config{}).Handler()
	fast := mustMarshal(t, registerBody(20))
	var viaJSON map[string]any
	if err := json.Unmarshal(fast, &viaJSON); err != nil {
		t.Fatal(err)
	}
	viaJSON["name"] = "escé" // outside the fast path's strings
	bodies := []struct {
		body []byte
		code int
	}{
		{fast, http.StatusOK},
		{mustMarshal(t, viaJSON), http.StatusOK},
		{[]byte(`{"train":{"x":[[1]],"y":[0]}`), http.StatusBadRequest},
		{[]byte(`{"train":{"x":[[1]],"y":[0]}}`), http.StatusBadRequest},
	}
	for i, c := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(c.body)))
		if rec.Code != c.code {
			t.Fatalf("body %d = %d %s, want %d", i, rec.Code, rec.Body, c.code)
		}
	}
	obs.SetLedger(prev)
	var ops []obs.LedgerRecord
	for _, line := range strings.Split(strings.TrimSpace(ledger.String()), "\n") {
		var r obs.LedgerRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("ledger line %q: %v", line, err)
		}
		if r.Type == "op" {
			ops = append(ops, r)
		}
	}
	want := []struct {
		rows int
		err  string
	}{{20, ""}, {20, ""}, {0, "empty_input"}}
	if len(ops) != len(want) {
		t.Fatalf("ledger ops %+v, want %d", ops, len(want))
	}
	for i, w := range want {
		if r := ops[i]; r.Op != "ServeRegister" || r.Rows != w.rows || r.Err != w.err || r.MS <= 0 {
			t.Errorf("op %d = %+v, want ServeRegister with %d rows, class %q and a duration", i, r, w.rows, w.err)
		}
	}
}

// The ops plane is mounted on the same handler as the API.
func TestOpsPlaneMounted(t *testing.T) {
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	_, ts := newTestServer(t, Config{})
	register(t, ts, 20)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "serve_requests_total") {
		t.Errorf("/metrics = %d, missing serve counters:\n%s", resp.StatusCode, raw)
	}
}

// /v1/cleaning selects a dataset's test neighbors once: concurrent first
// requests share one top-k build of the dataset's test index, a later
// request builds none, and every reply is the same bytes.
func TestCleaningSelectsOncePerDataset(t *testing.T) {
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	s, ts := newTestServer(t, Config{Slots: 8})
	id := register(t, ts, 60)
	req, err := json.Marshal(map[string]any{"dataset": id, "batch": 5, "budget": 15, "workers": 2})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, []byte, error) {
		resp, err := http.Post(ts.URL+"/v1/cleaning", "application/json", bytes.NewReader(req))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
	// builds counts the top-k builds in the recorded spans: the test
	// index's is the only one a cleaning request runs
	builds := func() int {
		n := 0
		var walk func(sp *obs.Span)
		walk = func(sp *obs.Span) {
			if name, _ := sp.Attr("name"); sp.Name() == "par.for" && name == "ml.neighbor_topk_build" {
				n++
			}
			for _, c := range sp.Children() {
				walk(c)
			}
		}
		for _, root := range obs.DefaultTracer().Roots() {
			walk(root)
		}
		return n
	}

	const callers = 4
	replies := make([][]byte, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			code, raw, err := post()
			if err != nil || code != http.StatusOK {
				t.Errorf("caller %d: cleaning = %d %s, %v", c, code, raw, err)
			}
			replies[c] = raw
		}(c)
	}
	wg.Wait()
	if n := builds(); n != 1 {
		t.Fatalf("%d concurrent first requests ran %d top-k builds, want 1", callers, n)
	}
	code, raw, err := post()
	if err != nil || code != http.StatusOK {
		t.Fatalf("second request: cleaning = %d %s, %v", code, raw, err)
	}
	if n := builds(); n != 1 {
		t.Errorf("a second request ran a top-k build: %d in all, want 1", n)
	}
	for c, r := range replies {
		if !bytes.Equal(r, raw) {
			t.Errorf("caller %d reply differs from the second request's:\n%s\n%s", c, r, raw)
		}
	}
	d, ok := s.lookup(id)
	if !ok || d.testIx == nil {
		t.Fatal("dataset holds no test index after a cleaning request")
	}
}

// The what-if store's key is an injective encoding of the variant list:
// lists that concatenate to the same names, tables and rows — the
// collisions a length-free encoding has — get different keys, and over
// random lists drawn from a small alphabet two keys are equal exactly
// when the lists are.
func TestVariantsKeyInjective(t *testing.T) {
	v := func(name string, remove ...prov.TupleID) pipeline.RemovalVariant {
		return pipeline.RemovalVariant{Name: name, Remove: remove}
	}
	id := func(table string, row int) prov.TupleID { return prov.TupleID{Table: table, Row: row} }
	for _, pair := range [][2][]pipeline.RemovalVariant{
		{{v("ab")}, {v("a"), v("b")}},
		{{v("a", id("bc", 1))}, {v("ab", id("c", 1))}},
		{{v("a", id("t", 1), id("t", 2))}, {v("a", id("t", 1)), v("", id("t", 2))}},
		{{v("", id("", 0))}, {v(""), v("")}},
		{{v("a", id("", 0))}, {v("a\x01\x00")}},
		{{v("a", id("x", 0), id("", 0))}, {v("a", id("", 60), id("\x00", 0))}},
		{{v("x", id("t", -1))}, {v("x", id("t", 1))}},
		{{v("x", id("t", 1<<40))}, {v("x", id("t", 0))}},
	} {
		if variantsKey(pair[0]) == variantsKey(pair[1]) {
			t.Errorf("%v and %v share a key", pair[0], pair[1])
		}
	}
	r := rand.New(rand.NewSource(4))
	words := []string{"", "a", "b", "ab", "train", "\x00", "\x01", "a\x01"}
	rows := []int{-1, 0, 1, 127, 128, 300}
	lists := map[string]string{} // key -> the list it encodes, printed
	for i := 0; i < 3000; i++ {
		list := make([]pipeline.RemovalVariant, r.Intn(4))
		for j := range list {
			list[j].Name = words[r.Intn(len(words))]
			for n := r.Intn(3); n > 0; n-- {
				list[j].Remove = append(list[j].Remove, id(words[r.Intn(len(words))], rows[r.Intn(len(rows))]))
			}
		}
		printed := fmt.Sprintf("%#v", list)
		key := variantsKey(list)
		if prev, ok := lists[key]; ok && prev != printed {
			t.Fatalf("%s and %s share a key", prev, printed)
		}
		lists[key] = printed
	}
	seen := map[string]bool{}
	for _, printed := range lists {
		if seen[printed] {
			t.Fatalf("%s has two keys", printed)
		}
		seen[printed] = true
	}
}
