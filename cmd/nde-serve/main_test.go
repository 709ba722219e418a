package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nde/internal/obs"
)

// syncWriter is a concurrency-safe stderr sink for the daemon goroutine.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

var addrRE = regexp.MustCompile(`nde-serve: listening on (\S+)`)

func waitAddr(t *testing.T, w *syncWriter) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(w.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr:\n%s", w.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, v any) (int, map[string]any) {
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
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("non-JSON response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

// The full daemon lifecycle in-process: serve, register + score over
// real HTTP, then SIGTERM drains cleanly and flushes the run ledger.
func TestServeLifecycleSIGTERM(t *testing.T) {
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	dir := t.TempDir()
	ledger := dir + "/run.jsonl"
	var stderr syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-ledger", ledger}, &stderr)
	}()
	base := "http://" + waitAddr(t, &stderr)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}

	var x [][]float64
	var y []int
	for i := 0; i < 24; i++ {
		c := i % 2
		x = append(x, []float64{float64(c)*4 + float64(i%5)*0.1, float64(c) * 4})
		y = append(y, c)
	}
	code, body := postJSON(t, base+"/v1/datasets", map[string]any{
		"train": map[string]any{"x": x, "y": y},
		"valid": map[string]any{"x": x[:8], "y": y[:8]},
	})
	if code != http.StatusOK {
		t.Fatalf("register = %d: %v", code, body)
	}
	id := body["id"].(string)

	code, body = postJSON(t, base+"/v1/importance", map[string]any{"dataset": id, "k": 3})
	if code != http.StatusOK {
		t.Fatalf("importance = %d: %v", code, body)
	}
	if scores, _ := body["scores"].([]any); len(scores) != 24 {
		t.Fatalf("scores = %d, want 24", len(scores))
	}

	// an async run started before the signal must finish during drain
	code, body = postJSON(t, base+"/v1/importance", map[string]any{"dataset": id, "k": 4, "async": true})
	if code != http.StatusAccepted {
		t.Fatalf("async importance = %d: %v", code, body)
	}
	runID := body["run"].(string)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; stderr:\n%s", stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "in-flight work finished") {
		t.Errorf("drain messages missing from stderr:\n%s", out)
	}

	// the ledger was flushed on drain: header first, then the op records
	// for the calls made above (the async run included)
	raw, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatalf("ledger not written: %v", err)
	}
	text := string(raw)
	if !strings.HasPrefix(text, `{"t":"header"`) {
		t.Errorf("ledger does not start with a header:\n%.200s", text)
	}
	for _, op := range []string{"ServeRegister", "ServeImportance"} {
		if !strings.Contains(text, op) {
			t.Errorf("ledger missing %s record:\n%s", op, text)
		}
	}
	_ = runID // the async run's op record is the second ServeImportance
}

// -queue 0 asks for no queue: a computation arriving while every slot is
// busy is shed at once. serve.Config reads Queue 0 as its default of 8,
// so the command passes -1; other values pass through.
func TestQueueFlagZeroMeansNoQueue(t *testing.T) {
	for flagQueue, want := range map[int]int{0: -1, 1: 1, 8: 8} {
		if got := serveConfig(4, flagQueue, 1<<20, false).Queue; got != want {
			t.Errorf("-queue %d: Config.Queue = %d, want %d", flagQueue, got, want)
		}
	}
}
