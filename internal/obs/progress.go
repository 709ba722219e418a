package obs

import (
	"sync/atomic"
	"time"
)

// Progress tracks a long-running loop's completed units. It mirrors
// itself into two gauges
// (progress_<name>_done / progress_<name>_total) so a metrics dump taken
// mid-run shows how far each loop has come, and observes its total elapsed
// seconds into progress_<name>_seconds on Done.
type Progress struct {
	name  string
	done  atomic.Int64
	start time.Time

	reg       *Registry // nil for the shared no-op progress
	doneGauge *Gauge
}

var noopProgress = &Progress{}

// NewProgress starts tracking a loop of total units on the default
// registry. While observability is disabled it returns a shared no-op
// progress and performs no allocation.
func NewProgress(name string, total int) *Progress {
	if !Enabled() {
		return noopProgress
	}
	name = Sanitize(name)
	p := &Progress{name: name, start: time.Now(), reg: defaultRegistry}
	defaultRegistry.Gauge("progress_" + name + "_total").Set(float64(total))
	p.doneGauge = defaultRegistry.Gauge("progress_" + name + "_done")
	p.doneGauge.Set(0)
	return p
}

// Tick records n completed units. Safe for concurrent use.
func (p *Progress) Tick(n int) {
	if p.reg == nil {
		return
	}
	d := p.done.Add(int64(n))
	p.doneGauge.Set(float64(d))
}

// Done finalizes the loop, recording its elapsed seconds into the
// progress_<name>_seconds histogram.
func (p *Progress) Done() {
	if p.reg == nil {
		return
	}
	p.reg.Histogram("progress_"+p.name+"_seconds", nil).Observe(time.Since(p.start).Seconds())
}
