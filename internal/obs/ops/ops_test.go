package ops

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nde/internal/obs"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthAndReady(t *testing.T) {
	ready := false
	h := Handler(Config{Ready: func() bool { return ready }})
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", rec.Code)
	}
	ready = true
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("/readyz after ready = %d, want 200", rec.Code)
	}
	// nil Ready = always ready
	if rec := get(t, Handler(Config{}), "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("/readyz with nil Ready = %d, want 200", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("ops_test_requests_total").Add(7)
	h := Handler(Config{Registry: r})
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ops_test_requests_total 7") {
		t.Errorf("exposition missing counter:\n%s", rec.Body.String())
	}
}

func TestTraceEndpoint(t *testing.T) {
	tr := obs.NewTracer()
	tr.CaptureAllocs(false)
	sp := tr.StartSpan("unit.work")
	sp.End()
	h := Handler(Config{Tracer: tr})
	rec := get(t, h, "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace = %d", rec.Code)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, "nde-trace.json") {
		t.Errorf("content disposition = %q", cd)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(out.TraceEvents) != 1 {
		t.Errorf("got %d events, want 1", len(out.TraceEvents))
	}
}

// Every ops route is a read; non-GET/HEAD methods are rejected with 405
// and an Allow header, while GET and HEAD keep working.
func TestMethodGuard(t *testing.T) {
	h := Handler(Config{})
	paths := []string{"/metrics", "/healthz", "/readyz", "/trace"}
	for _, path := range paths {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			req := httptest.NewRequest(method, path, strings.NewReader("x"))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q, want \"GET, HEAD\"", method, path, allow)
			}
		}
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			req := httptest.NewRequest(method, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusMethodNotAllowed {
				t.Errorf("%s %s = 405, want it allowed", method, path)
			}
		}
	}
}

// REGRESSION: Close used to read and nil s.srv unsynchronized, a data race
// when a signal handler and a defer both tore the server down. Now it is
// idempotent and race-free, and Addr stays valid afterwards.
func TestConcurrentClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("empty address from live server")
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent close %d: %v", i, err)
		}
	}
	if got := srv.Addr(); got != addr {
		t.Errorf("Addr after Close = %q, want %q", got, addr)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close after concurrent closes: %v", err)
	}
	// nil receiver is a no-op on both methods
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Error("nil server methods are not no-ops")
	}
}

func TestPprofGated(t *testing.T) {
	if rec := get(t, Handler(Config{}), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without opt-in = %d, want 404", rec.Code)
	}
	if rec := get(t, Handler(Config{Pprof: true}), "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof with opt-in = %d, want 200", rec.Code)
	}
}

// The acceptance-criteria scenario: a live server scraped over real TCP
// while the observed run is still opening and closing spans and bumping
// counters (runs under -race in check.sh).
func TestServeScrapeMidRun(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	tr.CaptureAllocs(false)
	srv, err := Serve("127.0.0.1:0", Config{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	root := tr.StartSpan("run")
	go func() {
		defer wg.Done()
		// Bound the span churn: every child stays in the tracer, and each
		// /trace export walks the whole tree under the tracer lock, so an
		// unbounded loop makes successive exports quadratically slower
		// (a 600s timeout under -race before this cap).
		spans := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Counter("run_ops_total").Add(1)
			if spans < 500 {
				c := root.StartChild("op")
				c.End()
				spans++
			}
		}
	}()

	base := "http://" + srv.Addr()
	for i := 0; i < 10; i++ {
		body := httpGet(t, base+"/metrics")
		if !strings.Contains(body, "run_ops_total") {
			t.Fatalf("mid-run scrape missing counter:\n%s", body)
		}
		trace := httpGet(t, base+"/trace")
		var out struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(trace), &out); err != nil {
			t.Fatalf("mid-run trace not JSON: %v", err)
		}
		if len(out.TraceEvents) == 0 {
			t.Fatalf("mid-run trace has no events")
		}
	}
	close(stop)
	wg.Wait()
	root.End()

	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(b)
}

// Flags.Start wires the whole session: obs enabled, ledger header
// written, ops server up; Close dumps the files and tears down.
func TestFlagsSessionLifecycle(t *testing.T) {
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	dir := t.TempDir()

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs)
	err := fs.Parse([]string{
		"-ops", "127.0.0.1:0",
		"-ledger", dir + "/run.jsonl",
		"-metrics", dir + "/out.prom",
		"-trace", dir + "/trace.json",
		"-slowspan", "1ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Active() {
		t.Fatalf("flags not active after parse")
	}
	var stderr strings.Builder
	sess, err := f.Start("ops-test", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetSlowSpanThreshold(0)
	if !obs.Enabled() {
		t.Errorf("obs not enabled by Start")
	}
	if !strings.Contains(stderr.String(), "serving telemetry on") {
		t.Errorf("no address notice on stderr: %q", stderr.String())
	}
	addr := sess.server.Addr()

	// simulate a run
	obs.Inc("session_test_total")
	sp := obs.StartSpan("session.work")
	time.Sleep(2 * time.Millisecond) // exceeds -slowspan 1ms
	sp.End()
	obs.RecordOp("SessionOp", time.Millisecond, 3, 0, "", "")
	if body := httpGet(t, "http://"+addr+"/metrics"); !strings.Contains(body, "session_test_total") {
		t.Errorf("live scrape missing counter")
	}

	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if obs.ActiveLedger() != nil {
		t.Errorf("ledger still installed after Close")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Errorf("ops server still serving after Close")
	}

	prom, err := os.ReadFile(dir + "/out.prom")
	if err != nil || !strings.Contains(string(prom), "session_test_total") {
		t.Errorf("metrics dump missing: %v\n%s", err, prom)
	}
	traceB, err := os.ReadFile(dir + "/trace.json")
	if err != nil || !strings.Contains(string(traceB), `"traceEvents"`) {
		t.Errorf("chrome trace dump missing: %v", err)
	}

	lf, err := os.Open(dir + "/run.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	var types []string
	sc := bufio.NewScanner(lf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad ledger line %q: %v", sc.Text(), err)
		}
		typ, _ := rec["t"].(string)
		types = append(types, typ)
	}
	joined := strings.Join(types, ",")
	if !strings.HasPrefix(joined, "header") {
		t.Errorf("ledger types = %v, want header first", types)
	}
	if !strings.Contains(joined, "op") || !strings.Contains(joined, "slow_span") {
		t.Errorf("ledger types = %v, want op and slow_span records", types)
	}
	if cmd := firstHeaderField(t, dir+"/run.jsonl", "cmd"); cmd != "ops-test" {
		t.Errorf("header cmd = %q", cmd)
	}
}

func firstHeaderField(t *testing.T, path, field string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	v, _ := rec[field].(string)
	return v
}

// A session with no flags set is inert: no obs, free Close.
func TestFlagsInactiveSession(t *testing.T) {
	obs.Disable()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	sess, err := f.Start("noop", nil)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Errorf("obs enabled without any telemetry flag")
	}
	if err := sess.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
