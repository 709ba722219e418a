package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"nde/internal/obs"
)

// waitUntil spins (yielding) until cond holds or the deadline hits.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// With all slots busy and a zero queue, the next caller is shed
// immediately; a Release frees the slot for the next Acquire.
func TestBudgetShedAtZeroQueue(t *testing.T) {
	b := NewBudget("bt_shed", 2, 0)
	ctx := context.Background()
	if err := b.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(ctx); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("third acquire err = %v, want ErrBudgetExhausted", err)
	}
	if n := b.InUse(); n != 2 {
		t.Errorf("in use = %d, want 2", n)
	}
	b.Release()
	if err := b.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	b.Release()
	b.Release()
}

// Callers beyond the slots but within the queue bound wait for a slot;
// callers beyond slots+queue are shed.
func TestBudgetQueueing(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	b := NewBudget("bt_queue", 1, 2)
	ctx := context.Background()
	if err := b.Acquire(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	queuedErrs := make([]error, 2)
	for i := range queuedErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queuedErrs[i] = b.Acquire(ctx)
			if queuedErrs[i] == nil {
				b.Release()
			}
		}(i)
	}
	waitUntil(t, "two queued callers", func() bool { return b.QueueDepth() == 2 })

	// queue is full: the next caller sheds without blocking
	if err := b.Acquire(ctx); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overflow acquire err = %v, want ErrBudgetExhausted", err)
	}

	b.Release() // both queued callers drain through the single slot
	wg.Wait()
	for i, err := range queuedErrs {
		if err != nil {
			t.Errorf("queued caller %d: %v", i, err)
		}
	}
	if n := b.InUse(); n != 0 {
		t.Errorf("in use = %d after drain, want 0", n)
	}
	if n := b.QueueDepth(); n != 0 {
		t.Errorf("queue depth = %d after drain, want 0", n)
	}
	if n := obs.Default().Counter("bt_queue_shed_total").Value(); n != 1 {
		t.Errorf("shed_total = %d, want 1", n)
	}
	if n := obs.Default().Counter("bt_queue_admitted_total").Value(); n != 3 {
		t.Errorf("admitted_total = %d, want 3", n)
	}
}

// A queued caller whose context ends gets ctx.Err, not a slot.
func TestBudgetContextCancel(t *testing.T) {
	b := NewBudget("bt_ctx", 1, 1)
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Acquire(ctx) }()
	waitUntil(t, "queued caller", func() bool { return b.QueueDepth() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire err = %v, want context.Canceled", err)
	}
	b.Release()
	// the canceled caller must not have consumed the slot
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	b.Release()
}

// A nil budget admits everything; Release without Acquire panics on a
// real budget.
func TestBudgetNilAndMisuse(t *testing.T) {
	var b *Budget
	if err := b.Acquire(context.Background()); err != nil {
		t.Errorf("nil budget Acquire: %v", err)
	}
	b.Release()
	if b.InUse() != 0 || b.QueueDepth() != 0 {
		t.Error("nil budget accessors not zero")
	}

	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	NewBudget("bt_misuse", 1, 0).Release()
}

// Hammer the budget from many goroutines: admissions never exceed the
// slot bound and the shed path stays consistent (run under -race).
func TestBudgetConcurrentStress(t *testing.T) {
	b := NewBudget("bt_stress", 3, 4)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		cur     int
		maxSeen int
	)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := b.Acquire(context.Background()); err != nil {
					if !errors.Is(err, ErrBudgetExhausted) {
						t.Errorf("acquire: %v", err)
					}
					continue
				}
				mu.Lock()
				cur++
				if cur > maxSeen {
					maxSeen = cur
				}
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				cur--
				mu.Unlock()
				b.Release()
			}
		}()
	}
	wg.Wait()
	if maxSeen > 3 {
		t.Errorf("max concurrent admissions = %d, want <= 3", maxSeen)
	}
	if b.InUse() != 0 || b.QueueDepth() != 0 {
		t.Errorf("in use = %d, queue = %d after drain, want 0, 0", b.InUse(), b.QueueDepth())
	}
}

// InUse returns the number of slots currently held.
func (b *Budget) InUse() int {
	if b == nil {
		return 0
	}
	return len(b.slots)
}

// QueueDepth returns the number of callers currently waiting for a slot.
func (b *Budget) QueueDepth() int {
	if b == nil {
		return 0
	}
	return int(b.queued.Load())
}
