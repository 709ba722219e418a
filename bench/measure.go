package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// system is one workload's system under test, driven by a closed loop of
// clients that each wait for their reply before sending the next op.
type system interface {
	// inputHash fingerprints the generated inputs.
	inputHash() string
	// setup starts the system and brings it to steady state (server
	// start, registrations, warming requests). The warm-up ops follow.
	setup() error
	// op runs op i. Up to the workload's client count call it at once.
	op(i int) error
	// check runs the output oracles after the timed window and returns
	// the number of mismatching outputs.
	check() int
	// counters returns per-layer counters read from the system itself;
	// snapshotCounters marks the start of the window they cover.
	snapshotCounters() error
	counters() (map[string]float64, error)
	// trace replays ops [from, from+reps) decomposed into the layer calls
	// the handler or facade makes, as spans on t, and times the layers
	// those calls reach inside on the same inputs.
	trace(t *tracer, from, reps int) error
	close()
}

// warmupOps run before the timed window and are excluded from it.
const warmupOps = 10

// The timed window runs as up to maxBlocks blocks, each with its own
// reference-speed samples and RSS high-water mark, of at least
// minBlockOps ops: the clients wait for each other at the end of a block,
// and with fewer ops that pause would change how much the clients
// compete for the cores.
const (
	maxBlocks   = 20
	minBlockOps = 10
)

// workload names one benchmark workload and how to build it.
type workload struct {
	name    string
	clients int
	// ops is the timed op count of a run of referenceSeconds; --seconds
	// scales it. The amount of work is fixed per run length, never per
	// elapsed time, so a faster commit does the same work and retains the
	// same telemetry (nde-serve keeps every root span).
	ops int
	// maxOps caps the timed op count when the inputs support only so
	// many ops; 0 means no cap.
	maxOps int
	// layers are the per-layer metrics the traced pass reports: the
	// layers this workload's ops and set-up reach.
	layers []string
	// build generates the inputs for seed and returns the system. ops is
	// the total op count including warm-up; tiny shrinks every input for
	// the smoke test.
	build func(seed int64, ops int, tiny bool) (system, error)
}

// referenceSeconds is the run length BENCHMARK.json declares.
const referenceSeconds = 20

// Op counts: every workload has at least 200 timed ops, so at least ten
// samples lie beyond p95, and each takes about 20 s on a 2-vCPU VM, so
// that a regression check's 92 runs of the four workloads fit in 3420 s;
// debug-loop's 700 steps of 8 removals cross the neighbor index's
// dead·4 > phys compaction of 20000 rows once, near step 626.
var workloads = []workload{
	{name: "serve-cold", clients: 2, ops: 220, build: newServeCold,
		layers: concat(commonLayers, serveLayers, []string{"ml.dataset_build_ms",
			"importance.knnshapley_ms", "importance.knnshapley_alloc_mb", "par.speedup.knnshapley"})},
	{name: "serve-warm", clients: 2, ops: 3000, build: newServeWarm,
		layers: concat(commonLayers, serveLayers, []string{"importance.knnshapley_ms", "importance.knnshapley_alloc_mb",
			"par.speedup.knnshapley", "pipeline.whatif_ms", "pipeline.whatif_alloc_mb", "ml.remove_rows_ms", "ml.predict_batch_ms"})},
	{name: "serve-cleaning", clients: 2, ops: 200, build: newServeCleaning,
		layers: concat(commonLayers, serveLayers, []string{"cleaning.compare_ms", "importance.knnshapley_serial_ms", "ml.evaluate_ms"})},
	{name: "debug-loop", clients: 1, ops: 700, maxOps: debugMaxSteps(debugTrainRows) - warmupOps, build: newDebugLoop,
		layers: concat(commonLayers, []string{"importance.bottomk_ms", "nde.session_remove_ms", "nde.session_accuracy_ms",
			"importance.delta_ms", "importance.delta_alloc_mb", "ml.remove_rows_ms", "ml.delta_walk_ms",
			"ml.delta_walk_alloc_mb", "ml.predict_batch_ms"})},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timedOps is the fixed op count of a run of the given length.
func (w workload) timedOps(seconds int) int {
	ops := max(traceReps, w.ops*seconds/referenceSeconds)
	if w.maxOps > 0 {
		ops = min(ops, w.maxOps)
	}
	return ops
}

// result is what one child run reports to the parent.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"latency_samples"`
	InputHash string             `json:"input_hash"`
	Metrics   map[string]float64 `json:"metrics"`
	// Measured holds the time metrics as measured, before scaling to the
	// reference speed, the reference kernel's median time and the share
	// of the window's CPU time the hypervisor stole.
	Measured map[string]float64 `json:"measured,omitempty"`

	lat      []float64          // untraced scaled latency of each timed op, in op order
	counters map[string]float64 // per-layer counters over the timed window
}

// measureRun runs one workload end to end with tracing off: set-up,
// warm-up, the timed window of ops, then the oracles.
func measureRun(sys system, clients, ops int) (*result, error) {
	probe := newSpeedProbe()
	runtime.GC()
	debug.FreeOSMemory()
	rssBase, _, err := readRSS()
	if err != nil {
		return nil, err
	}
	setup, warmFailed, err := timeSetup(sys, clients, probe)
	if err != nil {
		return nil, err
	}

	if err := sys.snapshotCounters(); err != nil {
		return nil, err
	}
	// The window runs as consecutive blocks of ops. Each block's times are
	// scaled to the reference speed sampled before and after it, its wall
	// times also by the share of CPU time not stolen over it, and each
	// block has its own RSS high-water mark; peak RSS is their median. One
	// high-water mark over the whole window is a single extreme value that
	// moves with the GC's timing from run to run.
	var lat, rawLat, peaks []float64
	var wall, cpu, rawWall, rawCPU, keptWall float64
	failed := 0
	blocks := max(1, min(maxBlocks, ops/minBlockOps))
	speed := make([]float64, blocks+1)
	if speed[0], err = probe.sample(); err != nil {
		return nil, err
	}
	alloc0 := heapAllocBytes()
	for b := 0; b < blocks; b++ {
		if err := resetRSSPeak(); err != nil {
			return nil, err
		}
		var blat []float64
		var bfailed int
		bwall, bcpu, kept, err := timeOn(func() {
			blat, bfailed = runOps(sys, clients, warmupOps+b*ops/blocks, warmupOps+(b+1)*ops/blocks)
		})
		if err != nil {
			return nil, err
		}
		_, hwm, err := readRSS()
		if err != nil {
			return nil, err
		}
		if speed[b+1], err = probe.sample(); err != nil {
			return nil, err
		}
		scale := scaleAround(speed[b], speed[b+1])
		for _, l := range blat {
			lat = append(lat, l*scale*kept)
		}
		rawLat = append(rawLat, blat...)
		wall, cpu = wall+bwall*scale*kept, cpu+bcpu*scale
		rawWall, rawCPU, keptWall = rawWall+bwall, rawCPU+bcpu, keptWall+bwall*kept
		failed += bfailed
		peaks = append(peaks, float64(hwm))
	}
	alloc := heapAllocBytes() - alloc0
	counters, err := sys.counters()
	if err != nil {
		return nil, err
	}
	failed += warmFailed + sys.check()

	attempted := warmupOps + ops
	m := timeMetrics(ops, wall, cpu, lat)
	m["alloc_mb_per_op"] = float64(alloc) / (1 << 20) / float64(ops)
	m["peak_rss_mb"] = (median(peaks) - float64(rssBase)) / (1 << 20)
	m["error_rate"] = float64(failed) / float64(attempted)
	m["setup_s"] = setup.scaled
	measured := timeMetrics(ops, rawWall, rawCPU, rawLat)
	measured["setup_s"] = setup.raw
	measured["ref_kernel_ms"] = median(speed)
	measured["steal_share"] = 1 - keptWall/rawWall
	return &result{
		Attempted: attempted,
		Failed:    failed,
		Samples:   len(lat),
		InputHash: sys.inputHash(),
		Metrics:   m,
		Measured:  measured,
		lat:       lat,
		counters:  counters,
	}, nil
}

// timeMetrics are the time metrics of a window of ops that took wall ms
// and cpu ms of CPU time, with the given op latencies in ms.
func timeMetrics(ops int, wall, cpu float64, lat []float64) map[string]float64 {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	return map[string]float64{
		"throughput_ops_s": float64(ops) / (wall / 1000),
		"latency_p50_ms":   quantile(sorted, 0.5),
		"latency_p95_ms":   nearestRank(sorted, 0.95),
		"cpu_ms_per_op":    cpu / float64(ops),
	}
}

// setupTime is one set-up's time in s, as measured and scaled to the
// reference speed.
type setupTime struct{ raw, scaled float64 }

// timeSetup times the set-up and the warm-up ops, scaled to the reference
// speed sampled just before and after and with steal taken out, and
// returns the count of failed warm-up ops.
func timeSetup(sys system, clients int, probe *speedProbe) (setupTime, int, error) {
	before, err := probe.sample()
	if err != nil {
		return setupTime{}, 0, err
	}
	var setupErr error
	failed := 0
	wall, _, kept, err := timeOn(func() {
		if setupErr = sys.setup(); setupErr == nil {
			_, failed = runOps(sys, clients, 0, warmupOps)
		}
	})
	if setupErr != nil {
		return setupTime{}, 0, fmt.Errorf("set-up: %w", setupErr)
	}
	if err != nil {
		return setupTime{}, 0, err
	}
	after, err := probe.sample()
	if err != nil {
		return setupTime{}, 0, err
	}
	raw := wall / 1000
	return setupTime{raw, raw * scaleAround(before, after) * kept}, failed, nil
}

// measureSetup times one fresh set-up, warm-up included, and nothing
// else: the parent runs it in fresh processes to take a median.
func measureSetup(sys system, clients int) (setupTime, error) {
	s, failed, err := timeSetup(sys, clients, newSpeedProbe())
	if err == nil && failed > 0 {
		err = fmt.Errorf("%d warm-up ops failed", failed)
	}
	return s, err
}

// runOps runs ops [from, to) on a closed loop of clients goroutines and
// returns each op's latency in ms, indexed by op, and the failure count.
func runOps(sys system, clients, from, to int) ([]float64, int) {
	lat := make([]float64, to-from)
	var next, failed atomic.Int64
	next.Store(int64(from))
	var logged sync.Once
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				t := time.Now()
				err := sys.op(i)
				lat[i-from] = ms(time.Since(t))
				if err != nil {
					failed.Add(1)
					logged.Do(func() { fmt.Fprintf(os.Stderr, "bench: op %d: %v\n", i, err) })
				}
			}
		}()
	}
	wg.Wait()
	return lat, int(failed.Load())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the user+system CPU time of the process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes is the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readRSS returns the resident set size and its high-water mark, in bytes.
func readRSS() (rss, hwm uint64, err error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, fmt.Errorf("reading RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) < 2 {
			continue
		}
		kb, err := strconv.ParseUint(string(f[1]), 10, 64)
		if err != nil {
			continue
		}
		switch string(f[0]) {
		case "VmRSS:":
			rss = kb << 10
		case "VmHWM:":
			hwm = kb << 10
		}
	}
	if rss == 0 || hwm == 0 {
		return 0, 0, fmt.Errorf("reading RSS: no VmRSS/VmHWM in /proc/self/status")
	}
	return rss, hwm, nil
}

// resetRSSPeak sets the process's RSS high-water mark (VmHWM) to its
// current RSS.
func resetRSSPeak() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// quantile linearly interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// nearestRank is the q-quantile as a sample value: with n samples at
// least n·(1-q) samples lie at or beyond it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
