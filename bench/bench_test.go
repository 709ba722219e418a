package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"nde/internal/serve"
)

// tinyOps is the timed op count of the smoke runs.
const tinyOps = 20

// benchmarkJSON is the metric list BENCHMARK.json declares.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultMetrics decodes the metrics of a result line as name -> unit.
func resultMetrics(t *testing.T, line string) map[string]string {
	t.Helper()
	var parsed struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if !parsed.Correct {
		t.Errorf("result line not correct: %s", line)
	}
	units := map[string]string{}
	for name, v := range parsed.Metrics {
		units[name] = v.Unit
	}
	return units
}

// TestWorkloadsSmoke runs every workload at tiny scale, untraced and
// traced, and checks that every metric BENCHMARK.json names is reported
// with its unit, that the traced pass reports exactly the workload's own
// layers, and that every output passes its oracle.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	var declared []string
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name)
	}
	if !slices.Equal(declared, commonLayers) {
		t.Fatalf("BENCHMARK.json per_layer %v, want the layers every workload reaches %v", declared, commonLayers)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sys, err := w.build(1, warmupOps+tinyOps, true)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.close()
			res, err := traceRun(sys, w, tinyOps, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d failed ops or oracle mismatches", res.Failed)
			}
			if len(res.Metrics) != len(w.layers) {
				t.Errorf("traced pass reported %d metrics, want the workload's %d layers", len(res.Metrics), len(w.layers))
			}
			res.Workload = w.name
			traced, _ := resultLine([]*result{res}, true, false)
			units := resultMetrics(t, traced)
			for _, m := range spec.PerLayer {
				if units[m.Name] != m.Unit {
					t.Errorf("per-layer %s: reported unit %q, BENCHMARK.json says %q", m.Name, units[m.Name], m.Unit)
				}
			}

			sys2, err := w.build(1, warmupOps+tinyOps, true)
			if err != nil {
				t.Fatal(err)
			}
			defer sys2.close()
			if res, err = measureRun(sys2, w.clients, tinyOps); err != nil {
				t.Fatal(err)
			}
			untraced, _ := resultLine([]*result{res}, false, false)
			units = resultMetrics(t, untraced)
			for _, m := range spec.EndToEnd {
				if units[m.Name] != m.Unit {
					t.Errorf("end-to-end %s: reported unit %q, BENCHMARK.json says %q", m.Name, units[m.Name], m.Unit)
				}
			}
			// Every scaled time is kept as measured too, with the
			// reference kernel's time that scaled it.
			for _, name := range []string{"throughput_ops_s", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_op", "setup_s", "ref_kernel_ms"} {
				if v := res.Measured[name]; !(v > 0) {
					t.Errorf("measured %s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// corruptedCold perturbs the first kept importance reply by one ulp
// before the oracle runs.
type corruptedCold struct{ *serveCold }

func (c corruptedCold) check() int {
	var resp serve.ImportanceResponse
	if err := json.Unmarshal(c.replies.first["0"], &resp); err != nil {
		return 0
	}
	resp.Scores[0] = math.Nextafter(resp.Scores[0], math.Inf(1))
	b, err := json.Marshal(resp)
	if err != nil {
		return 0
	}
	c.replies.first["0"] = b
	return c.serveCold.check()
}

func TestCorruptedScoreIsAnError(t *testing.T) {
	sys, err := newServeCold(1, warmupOps+tinyOps, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	res, err := measureRun(corruptedCold{sys.(*serveCold)}, 2, tinyOps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["error_rate"] <= 0 || res.Failed != 1 {
		t.Fatalf("corrupted score: error_rate %v, failed %d; want > 0 and 1", res.Metrics["error_rate"], res.Failed)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed int64) string {
			sys, err := w.build(seed, warmupOps+tinyOps, true)
			if err != nil {
				t.Fatal(err)
			}
			return sys.inputHash()
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 generated different inputs (%s, %s)", w.name, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs (%s)", w.name, a)
		}
	}
}

// TestDebugLoopFitsTrainSet checks that no run length makes debug-loop
// remove more than half of its train set.
func TestDebugLoopFitsTrainSet(t *testing.T) {
	w, _ := findWorkload("debug-loop")
	for _, seconds := range []int{1, referenceSeconds, 60, 3600} {
		ops := warmupOps + w.timedOps(seconds)
		if ops*debugRemovePerStep > debugTrainRows/2 {
			t.Errorf("-seconds %d: %d steps remove %d of %d rows", seconds, ops, ops*debugRemovePerStep, debugTrainRows)
		}
		if _, err := newDebugLoop(1, ops, false); err != nil {
			t.Errorf("-seconds %d: %v", seconds, err)
		}
	}
	if _, err := newDebugLoop(1, debugMaxSteps(debugTrainRows)+1, false); err == nil {
		t.Error("a step count beyond the train set was accepted")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster", base, shift(0.8), "improved"},
		{"same", base, base, "unchanged"},
		{"slower", base, shift(1.2), "worse"},
		{"noisy parent", noisy, shift(1.05), "unresolved"},
		{"noisy change", base, noisy, "unresolved"},
	} {
		if got := judge(tc.a, tc.b, true, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
