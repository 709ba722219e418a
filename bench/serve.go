package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nde/internal/obs"
	"nde/internal/serve"
)

// serveSUT is an in-process nde-serve: the default serve.Config on a
// loopback listener with obs enabled, exactly as cmd/nde-serve runs, and
// a client limited to two connections.
type serveSUT struct {
	ts     *httptest.Server
	client *http.Client
	shed   atomic.Int64 // 429 responses
	bufs   sync.Pool
	before map[string]float64
}

func startServer() (*serveSUT, error) {
	obs.Enable()
	s := &serveSUT{
		ts: httptest.NewServer(serve.NewServer(serve.Config{}).Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
	status, body, err := s.do(http.MethodGet, "/readyz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/readyz: status %d: %s", status, body)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveSUT) close() {
	if s == nil {
		return
	}
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// do sends one request and returns the status and the whole reply. The
// reply is read into a pooled buffer so client-side allocation stays one
// exact-size copy per op.
func (s *serveSUT) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := s.bufs.Get().(*bytes.Buffer)
	defer s.bufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		s.shed.Add(1)
	}
	return resp.StatusCode, append([]byte(nil), buf.Bytes()...), nil
}

// post sends a JSON body and fails on any non-2xx reply.
func (s *serveSUT) post(path string, body []byte) ([]byte, error) {
	status, reply, err := s.do(http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, status, reply)
	}
	return reply, nil
}

// register posts a pre-encoded dataset and returns its id.
func (s *serveSUT) register(body []byte) (string, error) {
	reply, err := s.post("/v1/datasets", body)
	if err != nil {
		return "", err
	}
	var r serve.RegisterResponse
	if err := json.Unmarshal(reply, &r); err != nil {
		return "", fmt.Errorf("decoding register reply: %w", err)
	}
	return r.ID, nil
}

// scrape reads the counters of /metrics.
func (s *serveSUT) scrape() (map[string]float64, error) {
	status, body, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasSuffix(name, "_total") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func (s *serveSUT) snapshotCounters() error {
	m, err := s.scrape()
	s.before = m
	s.shed.Store(0)
	return err
}

// counters turns the /metrics deltas of the timed window into the store
// and serve layer metrics.
func (s *serveSUT) counters() (map[string]float64, error) {
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	m := storeCounters(s.before, after)
	m["serve.errors"] = after["serve_errors_total"] - s.before["serve_errors_total"]
	m["serve.shed"] = float64(s.shed.Load())
	return m, nil
}

// storeCounters derives the store layer metrics from two scrapes of the
// counters; a store nothing asked has hit ratio 0.
func storeCounters(before, after map[string]float64) map[string]float64 {
	d := func(name string) float64 { return after[name] - before[name] }
	ratio := func(store string) float64 {
		hits, misses := d(store+"_hits_total"), d(store+"_misses_total")
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	return map[string]float64{
		"store.index.hit_ratio":      ratio("importance_neighbor_index"),
		"store.index.evictions":      d("importance_neighbor_index_evictions_total"),
		"store.index.waits":          d("importance_neighbor_index_waits_total"),
		"store.scores.hit_ratio":     ratio("serve_scores"),
		"store.whatif.hit_ratio":     ratio("serve_whatif"),
		"store.featurized.hit_ratio": ratio("serve_featurized"),
	}
}

// bodyTracker checks that every reply to the same request is identical
// and keeps the first reply of each for the oracle.
type bodyTracker struct {
	mu        sync.Mutex
	first     map[string][]byte
	hashes    map[string]uint64
	divergent int
}

func newBodyTracker() *bodyTracker {
	return &bodyTracker{first: map[string][]byte{}, hashes: map[string]uint64{}}
}

func (t *bodyTracker) add(key string, reply []byte) {
	h := hashBytes(reply)
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, ok := t.hashes[key]
	switch {
	case !ok:
		t.hashes[key] = h
		t.first[key] = reply
	case prev != h:
		t.divergent++
	}
}
