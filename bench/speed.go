package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Times are reported at a reference machine speed, with the time the
// hypervisor gave the CPUs to other guests taken out. The benchmark runs
// on a few vCPUs of a shared host whose speed drifts by tens of percent
// over minutes as the neighbours' load changes: a fixed compute loop timed
// in 20 s windows over ten minutes had an inter-quartile spread of 17% of
// its median, even 60 s windows 15%. Drift that slow cannot be averaged
// away inside one run, so the timed window runs as blocks with a fixed
// reference kernel — the benchmark's own code, independent of the code
// under test — timed between them, and each block's times are scaled by
// refNominalMs over the kernel's time measured around the block. On top of
// that the host sometimes stops the vCPUs for seconds (steal time); the
// kernel, timed by CPU clocks, does not see that, so each block's wall
// times are also scaled by the share of CPU time the VM kept over the
// block. A scaled time reads as it would on a machine where the kernel
// takes refNominalMs and no time is stolen.

// refNominalMs is the reference kernel's time, rounded, on the 2-vCPU Xeon
// VM (Sapphire Rapids, Go 1.24) the bounds were set on, while its
// neighbours were quiet.
const refNominalMs = 1.0

// The reference kernel: squared distances from refQueries queries to
// refRows rows of refDim values, then each query's distances sorted — the
// distance kernel and argsort most of the workloads' time goes to.
const (
	refQueries = 4
	refRows    = 2048
	refDim     = 32
	// refRounds rounds, each running the kernel once on every core at
	// once as the workloads load every core, make one sample; the sample
	// is their median.
	refRounds = 25
)

// speedProbe times the reference kernel. Each core's goroutine owns its
// buffers, so sampling allocates nothing but the goroutines.
type speedProbe struct {
	bufs []refBuf
}

type refBuf struct {
	x, q, d []float64
	cpu     time.Duration // CPU time of the last run
	err     error
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{bufs: make([]refBuf, runtime.GOMAXPROCS(0))}
	for i := range p.bufs {
		b := &p.bufs[i]
		b.x = make([]float64, refRows*refDim)
		b.q = make([]float64, refQueries*refDim)
		b.d = make([]float64, refQueries*refRows)
		// A fixed pattern, not the seed: the kernel's work never varies.
		for j := range b.x {
			b.x[j] = float64(j*7919%1009) / 1009
		}
		for j := range b.q {
			b.q[j] = float64(j*104729%1013) / 1013
		}
	}
	return p
}

// kernel runs the reference work once.
func (b *refBuf) kernel() {
	for qi := 0; qi < refQueries; qi++ {
		q := b.q[qi*refDim : (qi+1)*refDim]
		d := b.d[qi*refRows : (qi+1)*refRows]
		for r := range d {
			x := b.x[r*refDim : (r+1)*refDim]
			s := 0.0
			for j, v := range q {
				t := v - x[j]
				s += t * t
			}
			d[r] = s
		}
		sort.Float64s(d)
	}
}

// timedKernel runs the kernel on a goroutine locked to its thread and
// records the thread's CPU time for it.
func (b *refBuf) timedKernel() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, err := threadCPU()
	if err != nil {
		b.err = err
		return
	}
	b.kernel()
	end, err := threadCPU()
	b.cpu, b.err = end-start, err
}

// sample returns the reference kernel's current time in ms: per round,
// the mean over cores of one kernel run; then the median over rounds.
// Each run is timed by its own thread's CPU clock, so it counts only the
// time the kernel ran: work the code under test leaves running in the
// background (a GC cycle, a goroutine) delays the kernel but does not
// read as a slower machine and scale the workload's own cost away.
func (p *speedProbe) sample() (float64, error) {
	rounds := make([]float64, refRounds)
	for r := range rounds {
		var wg sync.WaitGroup
		for i := range p.bufs {
			wg.Add(1)
			go func(b *refBuf) {
				defer wg.Done()
				b.timedKernel()
			}(&p.bufs[i])
		}
		wg.Wait()
		var sum time.Duration
		for i := range p.bufs {
			if err := p.bufs[i].err; err != nil {
				return 0, err
			}
			sum += p.bufs[i].cpu
		}
		rounds[r] = ms(sum) / float64(len(p.bufs))
	}
	return median(rounds), nil
}

// scaleAround is the factor that brings times measured between two
// samples to the reference speed.
func scaleAround(before, after float64) float64 {
	return refNominalMs / ((before + after) / 2)
}

// timeOn runs fn and returns its wall time and the process CPU time it
// took, in ms, and the share of the machine's CPU time over it that the
// hypervisor did not steal. CPU time already leaves steal out.
func timeOn(fn func()) (wall, cpu, kept float64, err error) {
	stolen0, cpus, err := stolen()
	if err != nil {
		return 0, 0, 0, err
	}
	start, cpu0 := time.Now(), cpuTime()
	fn()
	wall, cpu = ms(time.Since(start)), ms(cpuTime()-cpu0)
	stolen1, _, err := stolen()
	if err != nil {
		return 0, 0, 0, err
	}
	// /proc/stat counts steal in whole ticks per CPU, so an interval of a
	// few ticks can read more steal than it had; the share is capped.
	kept = max(1-ms(stolen1-stolen0)/(float64(cpus)*wall), minKept)
	return wall, cpu, kept, nil
}

// minKept caps the steal taken out of an interval at half its time.
const minKept = 0.5

// stolen returns the time the hypervisor ran other guests on this
// machine's CPUs, summed over them, from /proc/stat's steal column, and
// the number of CPUs.
func stolen() (time.Duration, int, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading steal time: %w", err)
	}
	var sum time.Duration
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		// Per-CPU lines: cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("reading steal time: %w", err)
		}
		sum += time.Duration(ticks) * userHzTick
		cpus++
	}
	if cpus == 0 {
		return 0, 0, fmt.Errorf("reading steal time: no per-CPU lines in /proc/stat")
	}
	return sum, cpus, nil
}

// userHzTick is the unit of /proc/stat's times, USER_HZ = 100 on Linux.
const userHzTick = 10 * time.Millisecond

// threadCPU is the calling thread's CPU time. getrusage(RUSAGE_THREAD)
// advances only at scheduler ticks, too coarse for a 1 ms kernel.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading the thread CPU clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
