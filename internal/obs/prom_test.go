package obs

import (
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// Exposition-correctness goldens beyond the happy path: a histogram with
// no observations must still emit all bucket lines, the +Inf bucket, and
// zero _sum/_count; observations past the last bound land only in +Inf.
func TestWritePrometheusHistogramEdges(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_hist", []float64{0.5, 1})
	over := r.Histogram("overflow_hist", []float64{0.25})
	over.Observe(1e9)
	over.Observe(math.MaxFloat64)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE empty_hist histogram
empty_hist_bucket{le="0.5"} 0
empty_hist_bucket{le="1"} 0
empty_hist_bucket{le="+Inf"} 0
empty_hist_sum 0
empty_hist_count 0
# TYPE overflow_hist histogram
overflow_hist_bucket{le="0.25"} 0
overflow_hist_bucket{le="+Inf"} 2
overflow_hist_sum 1.7976931348623157e+308
overflow_hist_count 2
`
	if b.String() != want {
		t.Errorf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// Metric families are emitted counters, then gauges, then histograms,
// each sorted by name — deterministic output for golden diffing and for
// scrape-to-scrape stability.
func TestWritePrometheusDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Add(1)
	r.Counter("a_total").Add(1)
	r.Gauge("m_gauge").Set(1)
	r.Histogram("b_hist", []float64{1}).Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	order := []string{"a_total", "z_total", "m_gauge", "b_hist"}
	last := -1
	for _, name := range order {
		i := strings.Index(out, "# TYPE "+name)
		if i < 0 {
			t.Fatalf("family %s missing:\n%s", name, out)
		}
		if i < last {
			t.Errorf("family %s out of order:\n%s", name, out)
		}
		last = i
	}
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Errorf("two scrapes of an unchanged registry differ")
	}
}

// Every exposition line must be either a # TYPE comment or a
// name{labels} value sample with a valid metric name.
func TestWritePrometheusLineGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs/total").Add(1) // sanitized on the way in
	r.Gauge("inf_gauge").Set(math.Inf(1))
	r.Histogram("h", nil).Observe(0.01)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	typeLine := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? (\+Inf|-Inf|[-+0-9.e]+)$`)
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if typeLine.MatchString(line) || sample.MatchString(line) {
			continue
		}
		t.Errorf("exposition line %q matches neither TYPE nor sample grammar", line)
	}
}

// Property: for any input string, Sanitize yields a valid Prometheus
// metric name ([a-zA-Z_:][a-zA-Z0-9_:]*), and valid names pass through
// unchanged (idempotence).
func TestSanitizeProperty(t *testing.T) {
	valid := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	rng := rand.New(rand.NewSource(20260808))
	alphabet := []rune("abzAZ_:019 -./{}\"\\\n\téπ測试☃\x00")
	for i := 0; i < 5000; i++ {
		n := rng.Intn(12)
		rs := make([]rune, n)
		for j := range rs {
			rs[j] = alphabet[rng.Intn(len(alphabet))]
		}
		in := string(rs)
		got := Sanitize(in)
		if !valid.MatchString(got) {
			t.Fatalf("Sanitize(%q) = %q, not a valid metric name", in, got)
		}
		if again := Sanitize(got); again != got {
			t.Fatalf("Sanitize not idempotent: %q -> %q -> %q", in, got, again)
		}
	}
	// Purely-invalid and empty inputs must still produce a usable name.
	for _, in := range []string{"", "-", "9", "99", "☃☃", "\x00"} {
		if got := Sanitize(in); !valid.MatchString(got) {
			t.Errorf("Sanitize(%q) = %q, not a valid metric name", in, got)
		}
	}
}
