package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// computePaths are the /v1 endpoints FuzzServeRequests posts to.
var computePaths = []string{"/v1/importance", "/v1/whatif", "/v1/cleaning"}

// serveOne posts body to path on h and returns the recorded reply.
func serveOne(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// A hostile /v1 body gets a classified reply: each input runs against a
// fresh server holding one registerBody(40) dataset, posts arbitrary
// bytes to /v1/importance, /v1/whatif or /v1/cleaning, and is drained
// before it returns. Every reply is 2xx, or 4xx with an ErrorResponse
// whose class is set; a 5xx means an unclassified compute error or a
// recovered panic.
func FuzzServeRequests(f *testing.F) {
	reg := mustMarshal(f, registerBody(40))
	var r RegisterResponse
	if rec := serveOne(NewServer(Config{}).Handler(), "/v1/datasets", reg); rec.Code != http.StatusOK ||
		json.Unmarshal(rec.Body.Bytes(), &r) != nil {
		f.Fatalf("register = %d: %s", rec.Code, rec.Body)
	}
	// one valid body per endpoint
	f.Add(uint8(0), mustMarshal(f, ImportanceRequest{Dataset: r.ID, K: 3}))
	f.Add(uint8(1), mustMarshal(f, WhatIfRequest{Dataset: r.ID, Variants: []WhatIfVariant{{Name: "a", Remove: []int{0, 3}}}}))
	f.Add(uint8(2), mustMarshal(f, CleaningRequest{Dataset: r.ID, Strategies: []string{"random", "knn-shapley"}, Batch: 5, Budget: 10}))
	// and TestRequestErrors' bodies, at every endpoint
	for e := range computePaths {
		for _, body := range []string{
			"{not json",
			`{"dataset": "d-x", "bogus": 1}`,
			`{"dataset": "` + strings.Repeat("x", 4096) + `"}`,
			`{"dataset": "d-missing"}`,
			`{"dataset": "` + r.ID + `", "strategies": ["random", "knn-shapley", "random"], "budget": 10}`,
		} {
			f.Add(uint8(e), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		s := NewServer(Config{})
		defer s.Drain()
		h := s.Handler()
		if rec := serveOne(h, "/v1/datasets", reg); rec.Code != http.StatusOK {
			t.Fatalf("register = %d: %s", rec.Code, rec.Body)
		}
		path := computePaths[int(endpoint)%len(computePaths)]
		rec := serveOne(h, path, body)
		switch {
		case rec.Code >= 200 && rec.Code < 300:
		case rec.Code >= 400 && rec.Code < 500:
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Class == "" {
				t.Fatalf("POST %s %q = %d with no error class: %s", path, body, rec.Code, rec.Body)
			}
		default:
			t.Fatalf("POST %s %q = %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
