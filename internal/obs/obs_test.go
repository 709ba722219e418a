package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const ops = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				r.Counter("ops_total").Add(1)
				r.Gauge("last_op").Set(float64(i))
				r.Histogram("op_size", []float64{10, 100, 1000}).Observe(float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != goroutines*ops {
		t.Errorf("counter = %d, want %d", got, goroutines*ops)
	}
	h := r.Histogram("op_size", nil)
	if got := h.Count(); got != goroutines*ops {
		t.Errorf("histogram count = %d, want %d", got, goroutines*ops)
	}
	// each goroutine observes 0..999: 11 values <= 10, 101 <= 100, 1000 <= 1000
	cum := h.Cumulative()
	want := []int64{11 * goroutines, 101 * goroutines, 1000 * goroutines, 1000 * goroutines}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

func TestDefaultHelpersRespectEnabled(t *testing.T) {
	Reset()
	Disable()
	Inc("disabled_total")
	SetGauge("disabled_gauge", 1)
	ObserveWith("disabled_hist", 1, nil)
	if got := Default().Counter("disabled_total").Value(); got != 0 {
		t.Errorf("disabled counter = %d, want 0", got)
	}
	Enable()
	defer Disable()
	defer Reset()
	Inc("enabled_total")
	Count("enabled_total", 2)
	SetGauge("enabled_gauge", 2.5)
	ObserveWith("enabled_hist", 3, []float64{1, 5})
	if got := Default().Counter("enabled_total").Value(); got != 3 {
		t.Errorf("enabled counter = %d, want 3", got)
	}
	if got := Default().Gauge("enabled_gauge").Value(); got != 2.5 {
		t.Errorf("enabled gauge = %v, want 2.5", got)
	}
	if got := Default().Histogram("enabled_hist", nil).Count(); got != 1 {
		t.Errorf("enabled histogram count = %d, want 1", got)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(3)
	r.Gauge("workers").Set(1.5)
	h := r.Histogram("latency_seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE runs_total counter
runs_total 3
# TYPE workers gauge
workers 1.5
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.5"} 2
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 4.75
latency_seconds_count 3
`
	if b.String() != want {
		t.Errorf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(7)
	r.Gauge("workers").Set(4)
	r.Histogram("sizes", []float64{1, 2}).Observe(1.5)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64   `json:"count"`
			Sum     float64 `json:"sum"`
			Buckets []struct {
				LE    float64 `json:"le"`
				Count int64   `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if out.Counters["runs_total"] != 7 {
		t.Errorf("counter = %d, want 7", out.Counters["runs_total"])
	}
	if out.Gauges["workers"] != 4 {
		t.Errorf("gauge = %v, want 4", out.Gauges["workers"])
	}
	h := out.Histograms["sizes"]
	if h.Count != 1 || h.Sum != 1.5 {
		t.Errorf("histogram = %+v, want count 1 sum 1.5", h)
	}
	if len(h.Buckets) != 3 || h.Buckets[1].Count != 1 {
		t.Errorf("buckets = %+v, want cumulative [0 1 1]", h.Buckets)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"good_name":     "good_name",
		"with-dash":     "with_dash",
		"9leading":      "_leading",
		"dots.and/more": "dots_and_more",
		"":              "_",
	}
	for in, want := range cases {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0.1, 0.1, 3)
	if lin[0] != 0.1 || len(lin) != 3 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExpBuckets(1, 2, 4)
	if exp[3] != 8 {
		t.Errorf("ExpBuckets = %v", exp)
	}
}
