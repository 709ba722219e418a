package serve

import (
	"fmt"
	"sync"
)

// A run is one async computation tracked for /v1/runs/{id} polling. Its
// fields past done are written once by the worker goroutine before done
// is closed and read-only afterwards.
type run struct {
	id   string
	op   string
	done chan struct{}

	result any
	err    error
}

func (r *run) finished() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// runRegistry tracks async runs and, through its WaitGroup, every
// in-flight computation (sync ones too) so drain can wait for all of
// them. Finished runs are retained for polling up to keep entries;
// beyond that the oldest finished run is dropped (a poll for it then
// 404s, which a client treats as "expired").
//
// Admission and drain exclude each other under mu: track checks
// draining and adds to the WaitGroup in one critical section, drain sets
// draining in another before it waits. So every Add either happens
// before drain's Wait starts or is refused, and Wait never races an Add
// from a zero count.
type runRegistry struct {
	mu       sync.Mutex
	runs     map[string]*run
	order    []string // insertion order for bounded retention
	seq      int
	keep     int
	draining bool // set once by drain; track refuses from then on

	wg sync.WaitGroup // in-flight computations, sync and async
}

func newRunRegistry(keep int) *runRegistry {
	if keep < 1 {
		keep = 1
	}
	return &runRegistry{runs: map[string]*run{}, keep: keep}
}

// begin registers a computation admitted by track as a new async run
// and returns it. The caller must call finish exactly once, in place of
// untrack.
func (g *runRegistry) begin(op string) *run {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	r := &run{id: fmt.Sprintf("r-%06d", g.seq), op: op, done: make(chan struct{})}
	g.runs[r.id] = r
	g.order = append(g.order, r.id)
	g.trimLocked()
	return r
}

// finish publishes the run's outcome and releases its drain slot.
func (g *runRegistry) finish(r *run, result any, err error) {
	r.result, r.err = result, err
	close(r.done)
	g.wg.Done()
}

// get returns the run by id.
func (g *runRegistry) get(id string) (*run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}

// track admits one computation into the drain WaitGroup and reports
// true, or reports false once drain has begun. Every admitted
// computation is released by exactly one untrack, or by finish if it
// became an async run.
func (g *runRegistry) track() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.wg.Add(1)
	return true
}

// untrack releases a computation admitted by track.
func (g *runRegistry) untrack() { g.wg.Done() }

// isDraining reports whether drain has begun.
func (g *runRegistry) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// drain refuses every later track, then blocks until every admitted
// computation has finished.
func (g *runRegistry) drain() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	g.wg.Wait()
}

// trimLocked drops the oldest FINISHED runs beyond the retention bound.
// Running entries are never dropped: their ids must stay pollable and
// drain still owns them.
func (g *runRegistry) trimLocked() {
	for len(g.runs) > g.keep {
		dropped := false
		for i, id := range g.order {
			if g.runs[id].finished() {
				delete(g.runs, id)
				copy(g.order[i:], g.order[i+1:])
				g.order = g.order[:len(g.order)-1]
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything still running; retention resumes later
		}
	}
}
