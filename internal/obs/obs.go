// Package obs provides zero-dependency observability primitives for the
// nde engines: a thread-safe metrics registry (counters, gauges,
// fixed-bucket histograms) exportable as Prometheus text format or JSON,
// lightweight context-free spans that record wall time, row counts and
// allocation deltas and assemble into a renderable tree, and a progress
// primitive (rate + ETA) for long-running loops.
//
// Observability is DISABLED by default and the instrumented hot paths are
// allocation-free in that state: StartSpan returns a shared no-op span,
// NewProgress returns a shared no-op progress, and the package-level
// metric helpers return before touching the registry. Enable() turns
// collection on process-wide; the cmd/ binaries do so when the user passes
// -metrics or -trace.
package obs

import "sync/atomic"

var enabled atomic.Bool

// Enabled reports whether observability collection is on. It is a single
// atomic load, safe to call on hot paths.
func Enabled() bool { return enabled.Load() }

// Enable turns on metric, span and progress collection process-wide.
func Enable() { enabled.Store(true) }

// Disable turns collection off again; subsequent instrumentation calls
// become no-ops. Already-collected data stays in the registry and tracer
// until Reset.
func Disable() { enabled.Store(false) }

var (
	defaultRegistry = NewRegistry()
	defaultTracer   = NewTracer()
)

// Default returns the process-wide registry that the package-level metric
// helpers and the cmd dump flags use.
func Default() *Registry { return defaultRegistry }

// DefaultTracer returns the process-wide tracer that StartSpan uses.
func DefaultTracer() *Tracer { return defaultTracer }

// Reset clears the default registry and tracer. Intended for tests and for
// long-lived processes that dump and restart collection windows.
func Reset() {
	defaultRegistry.Reset()
	defaultTracer.Reset()
}

// Count adds delta to the named counter in the default registry. No-op
// (and allocation-free) while observability is disabled.
func Count(name string, delta int64) {
	if !Enabled() {
		return
	}
	defaultRegistry.Counter(name).Add(delta)
}

// Inc increments the named counter by one.
func Inc(name string) { Count(name, 1) }

// SetGauge sets the named gauge in the default registry. No-op while
// disabled.
func SetGauge(name string, v float64) {
	if !Enabled() {
		return
	}
	defaultRegistry.Gauge(name).Set(v)
}

// AddGauge adds delta (which may be negative) to the named gauge in the
// default registry — the in-flight pattern: +1 when a concurrent unit of
// work starts, -1 when it ends. Safe for concurrent use; no-op while
// disabled.
func AddGauge(name string, delta float64) {
	if !Enabled() {
		return
	}
	defaultRegistry.Gauge(name).Add(delta)
}

// ObserveWith records v into the named histogram, creating it with the
// given bucket upper bounds if it does not exist yet. No-op while
// disabled.
func ObserveWith(name string, v float64, bounds []float64) {
	if !Enabled() {
		return
	}
	defaultRegistry.Histogram(name, bounds).Observe(v)
}
