package par

import (
	"context"
	"errors"
	"sync/atomic"

	"nde/internal/obs"
)

// ErrBudgetExhausted reports that a Budget had no free slot and its wait
// queue was already full. A server maps it to 429 Too Many Requests.
var ErrBudgetExhausted = errors.New("par: concurrency budget exhausted")

// Budget is an admission controller for request-scoped work sitting in
// front of the worker pool: at most slots admissions run concurrently,
// and at most queue callers wait for a slot. Anything beyond that is shed
// immediately with ErrBudgetExhausted instead of piling up goroutines —
// the pool itself bounds CPU, the budget bounds *latency* by refusing
// work it could only serve late.
//
// A nil *Budget admits everything and is valid to call, so wiring is
// optional.
//
// Metrics (no-op while obs is off):
//
//	<name>_admitted_total  callers that got a slot (fast path or queued)
//	<name>_shed_total      callers rejected with ErrBudgetExhausted
//	<name>_in_use          gauge: slots currently held
//	<name>_queue_depth     gauge: callers currently waiting
type Budget struct {
	name   string
	slots  chan struct{}
	queued atomic.Int64
	max    int // queue bound

	// Metric names, precomputed so the obs calls on the admission fast
	// path stay zero-alloc while obs is off (enforced by nde-lint
	// obsguard: concatenating at the call site would allocate on every
	// Acquire even with telemetry disabled).
	mAdmitted, mShed, mInUse, mQueueDepth string
}

// NewBudget creates a budget of the given concurrency slots (minimum 1)
// and wait-queue bound (minimum 0; 0 sheds as soon as all slots are
// busy). Metrics are exported under the name prefix.
func NewBudget(name string, slots, queue int) *Budget {
	if slots < 1 {
		slots = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Budget{
		name:        name,
		slots:       make(chan struct{}, slots),
		max:         queue,
		mAdmitted:   name + "_admitted_total",
		mShed:       name + "_shed_total",
		mInUse:      name + "_in_use",
		mQueueDepth: name + "_queue_depth",
	}
}

// Acquire takes a slot, waiting in the bounded queue if none is free.
// It returns ErrBudgetExhausted when the queue is full, or ctx.Err() if
// the context ends first. Every successful Acquire must be paired with
// exactly one Release.
func (b *Budget) Acquire(ctx context.Context) error {
	if b == nil {
		return nil
	}
	// Fast path: a slot is free, skip the queue accounting entirely.
	select {
	case b.slots <- struct{}{}:
		b.admitted()
		return nil
	default:
	}
	if q := b.queued.Add(1); int(q) > b.max {
		b.queued.Add(-1)
		obs.Inc(b.mShed)
		return ErrBudgetExhausted
	}
	b.gauges()
	defer func() {
		b.queued.Add(-1)
		b.gauges()
	}()
	select {
	case b.slots <- struct{}{}:
		b.admitted()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by a successful Acquire.
func (b *Budget) Release() {
	if b == nil {
		return
	}
	select {
	case <-b.slots:
		b.gauges()
	default:
		panic("par: Budget.Release without a matching Acquire")
	}
}

func (b *Budget) admitted() {
	obs.Inc(b.mAdmitted)
	b.gauges()
}

func (b *Budget) gauges() {
	if !obs.Enabled() {
		return
	}
	obs.SetGauge(b.mInUse, float64(len(b.slots)))
	obs.SetGauge(b.mQueueDepth, float64(b.queued.Load()))
}
