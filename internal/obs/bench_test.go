package obs

import (
	"testing"
	"time"
)

// BenchmarkNoopInstrumentation measures the disabled-mode cost of the full
// instrumentation pattern used on the hot paths. It must report 0 B/op and
// 0 allocs/op.
func BenchmarkNoopInstrumentation(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan("pipeline.op")
		sp.SetStr("kind", "Filter").SetRows(100, 40)
		Inc("pipeline_memo_misses_total")
		SetGauge("workers", 8)
		ObserveWith("latency_seconds", 0.1, nil)
		sp.End()
	}
}

// BenchmarkNoopLedgerRecord measures the cost of a facade-level ledger
// record when no ledger is installed: a single atomic pointer load. It
// must report 0 B/op and 0 allocs/op — the run-ledger extension of the
// no-op contract.
func BenchmarkNoopLedgerRecord(b *testing.B) {
	if prev := SetLedger(nil); prev != nil {
		defer SetLedger(prev)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RecordOp("nde.WhatIf", time.Millisecond, 100, 4, "hit", "")
	}
}

// BenchmarkEnabledCounter measures the enabled-mode cost of a counter
// increment through the package helper (one atomic bool load, one map
// lookup under RLock, one atomic add).
func BenchmarkEnabledCounter(b *testing.B) {
	Enable()
	defer Disable()
	defer Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Inc("bench_counter_total")
	}
}

// BenchmarkEnabledHistogramObserve measures the enabled-mode cost of one
// histogram observation with a pre-resolved handle.
func BenchmarkEnabledHistogramObserve(b *testing.B) {
	Enable()
	defer Disable()
	defer Reset()
	h := Default().Histogram("bench_hist", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 10))
	}
}
