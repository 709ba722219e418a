// Command bench is the repository's benchmark: it runs the paper's three
// workflows the way a user runs them — nde-serve requests over loopback
// HTTP and the interactive debug loop on the facade — reports end-to-end
// metrics with units, checks every output against a serial oracle, and
// with -trace 1 reports per-layer metrics from spans around the calls
// into each layer. See README.md.
//
// Usage, from the repository root:
//
//	sh bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out results.json]
//	sh bench/run.sh -compare A.json B.json
//
// Without -workload every workload runs in turn. Each workload runs in
// child processes that re-execute this binary, so heap, GC state and
// peak RSS never leak between workloads or set-ups.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"nde/internal/obs"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. error_rate is
// printed but carried in the result line as "failed": it is 0 whenever
// the run is correct.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"error_rate", "fraction"},
	{"setup_s", "s"},
}

// Per-layer metrics of the -trace 1 pass, named by module. Each workload
// reports the layers its ops and set-up reach (workload.layers).
// commonLayers are the ones every workload reaches; they are the
// per-layer metrics of the result line and of BENCHMARK.json.
var (
	commonLayers = []string{
		"trace.op_p50_ms", "trace.untraced_p50_ms",
		"linalg.fingerprint_ms", "linalg.pairwise_d2_ms", "linalg.pairwise_d2_alloc_mb",
		"ml.argsort_ms", "ml.argsort_alloc_mb",
		"par.for_overhead_us", "par.speedup.pairwise_d2", "par.speedup.argsort",
	}
	serveLayers = []string{
		"serve.decode_ms", "serve.encode_ms", "serve.transport_ms", "serve.errors", "serve.shed",
		"store.index.hit_ratio", "store.index.evictions", "store.index.waits",
		"store.scores.hit_ratio", "store.whatif.hit_ratio", "store.featurized.hit_ratio",
	}
)

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// layerUnit is a per-layer metric's unit, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "par.speedup."):
		return "x"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

// traceReps is how many ops the -trace 1 pass replays.
const traceReps = 20

// setupRuns fresh set-ups are timed per run; setup_s is their median.
const setupRuns = 3

// buildDir holds everything a run leaves behind.
const buildDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run that completed but failed ops or oracles;
// its result line has already been printed.
var errIncorrect = errors.New("outputs failed their checks")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", referenceSeconds, "run length; fixes the op count of each workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", "", "append each run to this results file")
	compare := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	child := fs.String("child", "", "internal: run one measurement in this process (run, setup, trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	if *child != "" {
		return childMain(stdout, *child, selected[0], *seed, *seconds)
	}

	var results []*result
	for _, w := range selected {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printTable(stdout, res, *trace == 1)
		results = append(results, res)
		if *out != "" {
			if err := appendResults(*out, res, *seconds, *trace == 1); err != nil {
				return err
			}
		}
	}
	line, correct := resultLine(results, *trace == 1, len(selected) > 1)
	fmt.Fprintln(stdout, line)
	if !correct {
		return errIncorrect
	}
	return nil
}

// runWorkload measures one workload in child processes: one run (or
// traced run), plus further fresh set-ups for the setup_s median.
func runWorkload(w workload, seed int64, seconds int, trace bool) (*result, error) {
	if trace {
		return spawn("trace", w, seed, seconds)
	}
	res, err := spawn("run", w, seed, seconds)
	if err != nil {
		return nil, err
	}
	scaled, raw := []float64{res.Metrics["setup_s"]}, []float64{res.Measured["setup_s"]}
	for len(scaled) < setupRuns {
		r, err := spawn("setup", w, seed, seconds)
		if err != nil {
			return nil, err
		}
		scaled, raw = append(scaled, r.Metrics["setup_s"]), append(raw, r.Measured["setup_s"])
	}
	res.Metrics["setup_s"], res.Measured["setup_s"] = median(scaled), median(raw)
	return res, nil
}

// spawn re-executes this binary for one measurement and waits for it.
func spawn(mode string, w workload, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child: decoding result: %w", mode, err)
	}
	return &res, nil
}

// childMain generates the inputs, runs one measurement and writes its
// result as JSON.
func childMain(stdout io.Writer, mode string, w workload, seed int64, seconds int) error {
	ops := w.timedOps(seconds)
	if mode == "setup" {
		ops = 0
	}
	sys, err := w.build(seed, warmupOps+ops, false)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	defer sys.close()
	var res *result
	switch mode {
	case "setup":
		s, err := measureSetup(sys, w.clients)
		if err != nil {
			return err
		}
		res = &result{Metrics: map[string]float64{"setup_s": s.scaled}, Measured: map[string]float64{"setup_s": s.raw}}
	case "run":
		if res, err = measureRun(sys, w.clients, ops); err != nil {
			return err
		}
	case "trace":
		if res, err = traceRun(sys, w, ops, buildDir); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -child mode %q", mode)
	}
	res.Workload, res.Seed = w.name, seed
	return json.NewEncoder(stdout).Encode(res)
}

// traceRun measures the workload untraced — the untraced latencies and
// the store counters come from this run — then replays traceReps ops
// with spans and writes them to dir as a Chrome trace. Span times are
// scaled to the reference speed sampled around the replay, with steal
// over it taken out, as the untraced latencies are around their blocks.
func traceRun(sys system, w workload, ops int, dir string) (*result, error) {
	res, err := measureRun(sys, w.clients, ops)
	if err != nil {
		return nil, err
	}
	// Start the replay from a collected heap, as the untraced run started.
	runtime.GC()
	probe := newSpeedProbe()
	before, err := probe.sample()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	var traceErr error
	_, _, kept, err := timeOn(func() { traceErr = sys.trace(t, warmupOps, traceReps) })
	if traceErr != nil {
		return nil, fmt.Errorf("trace: %w", traceErr)
	}
	if err != nil {
		return nil, err
	}
	after, err := probe.sample()
	if err != nil {
		return nil, err
	}
	untraced := map[int]float64{}
	for j, v := range res.lat {
		untraced[warmupOps+j] = v
	}
	spans := t.layerMetrics(untraced, scaleAround(before, after)*kept)
	for k, v := range res.counters {
		spans[k] = v
	}
	res.Metrics = map[string]float64{}
	for _, name := range w.layers {
		v, ok := spans[name]
		if !ok {
			return nil, fmt.Errorf("trace: no %s", name)
		}
		res.Metrics[name] = v
	}
	path := filepath.Join(dir, "bench-trace-"+w.name+".json")
	if err := t.writeChrome(path); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	return res, nil
}

// metricDefs are the metrics printed for a workload: the end-to-end
// metrics, or traced, the workload's per-layer metrics.
func metricDefs(name string, trace bool) []metricDef {
	if !trace {
		return endToEnd
	}
	w, _ := findWorkload(name)
	return layerDefs(w.layers)
}

func layerDefs(names []string) []metricDef {
	defs := make([]metricDef, len(names))
	for i, n := range names {
		defs[i] = metricDef{n, layerUnit(n)}
	}
	return defs
}

// printTable prints one workload's metrics by name with unit, and next
// to each scaled time the time as measured.
func printTable(w io.Writer, res *result, trace bool) {
	fmt.Fprintf(w, "%s  seed=%d  attempted=%d failed=%d  latency samples=%d\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.Samples)
	for _, m := range metricDefs(res.Workload, trace) {
		line := fmt.Sprintf("  %-32s %14.4f %s", m.name, res.Metrics[m.name], m.unit)
		if v, ok := res.Measured[m.name]; ok {
			line = fmt.Sprintf("%-58s (as measured %.4f)", line, v)
		}
		fmt.Fprintln(w, line)
	}
	if v, ok := res.Measured["ref_kernel_ms"]; ok {
		fmt.Fprintf(w, "  reference kernel %.4f ms (nominal %.4f ms), %.2f%% of CPU time stolen: times are scaled to the nominal speed without steal\n",
			v, refNominalMs, 100*res.Measured["steal_share"])
	}
}

// resultLine is the last line of standard output: one JSON object with
// every end-to-end metric (or, traced, every common per-layer metric),
// keyed "<workload>/<metric>" when several workloads ran.
func resultLine(results []*result, trace, prefixed bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	defs := endToEnd
	if trace {
		defs = layerDefs(commonLayers)
	}
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, m := range defs {
			if m.name == "error_rate" {
				continue
			}
			v, ok := res.Metrics[m.name]
			if !ok {
				line.Failed++
				fmt.Fprintf(os.Stderr, "bench: %s reported no %s\n", res.Workload, m.name)
			}
			key := m.name
			if prefixed {
				key = res.Workload + "/" + m.name
			}
			line.Metrics[key] = value{v, m.unit}
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, line.Attempted, line.Failed+1), false
	}
	return string(b), line.Correct
}

// resultsFile is the -out file: run records appended across invocations,
// which -compare reads back.
type resultsFile struct {
	Meta map[string]any `json:"meta"`
	Runs []runRecord    `json:"runs"`
}

type runRecord struct {
	result
	Trace bool `json:"trace"`
}

func appendResults(path string, res *result, seconds int, trace bool) error {
	var f resultsFile
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Meta = map[string]any{
		"git_sha":    obs.GitSHA(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seconds":    seconds,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"args":       strings.Join(os.Args[1:], " "),
	}
	f.Runs = append(f.Runs, runRecord{result: *res, Trace: trace})
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
