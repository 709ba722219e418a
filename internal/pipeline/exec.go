package pipeline

import (
	"fmt"
	"time"

	"nde/internal/frame"
	"nde/internal/obs"
	"nde/internal/prov"
)

// Result is the output of executing a pipeline node: a frame plus one
// provenance polynomial per row.
type Result struct {
	Frame *frame.Frame
	Prov  []prov.Polynomial
}

// NodeStats records the cost of one operator during a Run.
type NodeStats struct {
	Node    int
	Kind    Kind
	Label   string
	RowsIn  int
	RowsOut int
	// Wall is the operator's self time (apply only, excluding inputs and
	// inspections).
	Wall time.Duration
	// MemoHits counts how many times the operator's memoized result was
	// reused by other consumers during the run; a shared sub-plan executes
	// once and accumulates hits.
	MemoHits int
}

// RunStats summarizes one Run: total wall time and the memoization
// behavior that was previously invisible. MemoMisses equals the number of
// operators actually executed; MemoHits counts reuses of shared sub-plans.
type RunStats struct {
	Wall       time.Duration
	MemoHits   int
	MemoMisses int
	Nodes      map[int]*NodeStats
}

// Run executes the DAG rooted at out, memoizing shared sub-plans, tracking
// provenance through every operator, and feeding registered inspections.
// Per-operator stats are collected when obs is enabled; otherwise the run
// is instrumentation-free (no extra allocations).
func (p *Pipeline) Run(out *Node) (*Result, error) {
	var rs *RunStats
	if obs.Enabled() {
		rs = &RunStats{Nodes: make(map[int]*NodeStats, len(p.nodes))}
	}
	sp := obs.StartSpan("pipeline.run")
	start := time.Now()
	memo := make(map[int]*Result)
	res, err := p.exec(out, memo, rs)
	if err != nil {
		sp.SetStr("error", err.Error()).End()
		return nil, err
	}
	if rs != nil {
		rs.Wall = time.Since(start)
		p.statsMu.Lock()
		p.lastRun = rs
		p.statsMu.Unlock()
		sp.SetInt("memo_hits", int64(rs.MemoHits)).SetInt("memo_misses", int64(rs.MemoMisses))
	}
	obs.Inc("pipeline_runs_total")
	sp.SetInt("rows_out", int64(res.Frame.NumRows())).End()
	return res, nil
}

// LastRunStats returns the stats of the most recent stats-collecting Run
// of this pipeline (nil if none). The returned value must be treated as
// read-only.
func (p *Pipeline) LastRunStats() *RunStats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.lastRun
}

func (p *Pipeline) exec(n *Node, memo map[int]*Result, rs *RunStats) (*Result, error) {
	if r, ok := memo[n.id]; ok {
		if rs != nil {
			rs.MemoHits++
			if st := rs.Nodes[n.id]; st != nil {
				st.MemoHits++
			}
		}
		obs.Inc("pipeline_memo_hits_total")
		return r, nil
	}
	sp := obs.StartSpan("pipeline.op")
	sp.SetStr("kind", n.kind.String()).SetInt("node", int64(n.id))
	ins := make([]*Result, len(n.inputs))
	for i, in := range n.inputs {
		r, err := p.exec(in, memo, rs)
		if err != nil {
			sp.End()
			return nil, err
		}
		ins[i] = r
	}
	rowsIn := 0
	for _, in := range ins {
		rowsIn += in.Frame.NumRows()
	}
	applyStart := time.Now()
	res, err := p.apply(n, ins)
	if err != nil {
		sp.SetStr("error", err.Error()).End()
		return nil, fmt.Errorf("pipeline: node %d %s: %w", n.id, n.label, err)
	}
	self := time.Since(applyStart)
	if len(res.Prov) != res.Frame.NumRows() {
		sp.End()
		return nil, fmt.Errorf("pipeline: node %d %s produced %d provenance entries for %d rows",
			n.id, n.label, len(res.Prov), res.Frame.NumRows())
	}
	for _, insp := range p.inspections {
		insp.Observe(n, res)
	}
	if rs != nil {
		rs.MemoMisses++
		rs.Nodes[n.id] = &NodeStats{
			Node:    n.id,
			Kind:    n.kind,
			Label:   n.label,
			RowsIn:  rowsIn,
			RowsOut: res.Frame.NumRows(),
			Wall:    self,
		}
	}
	obs.Inc("pipeline_memo_misses_total")
	sp.SetStr("label", n.label).SetRows(rowsIn, res.Frame.NumRows()).End()
	memo[n.id] = res
	return res, nil
}

func (p *Pipeline) apply(n *Node, ins []*Result) (*Result, error) {
	switch n.kind {
	case KindSource:
		f := n.sourceFrame
		polys := make([]prov.Polynomial, f.NumRows())
		for i := range polys {
			polys[i] = prov.Var(prov.TupleID{Table: n.sourceName, Row: i})
		}
		return &Result{Frame: f, Prov: polys}, nil

	case KindFilter:
		in := ins[0]
		out, kept := in.Frame.Filter(n.pred)
		polys := make([]prov.Polynomial, len(kept))
		for o, i := range kept {
			polys[o] = in.Prov[i]
		}
		return &Result{Frame: out, Prov: polys}, nil

	case KindJoin:
		left, right := ins[0], ins[1]
		jr, err := frame.Join(left.Frame, right.Frame, n.leftOn, n.rightOn, n.joinKind)
		if err != nil {
			return nil, err
		}
		polys := make([]prov.Polynomial, len(jr.LeftIdx))
		for o := range jr.LeftIdx {
			lp := left.Prov[jr.LeftIdx[o]]
			if ri := jr.RightIdx[o]; ri >= 0 {
				polys[o] = prov.Mul(lp, right.Prov[ri])
			} else {
				polys[o] = lp // left join without a match depends only on the left tuple
			}
		}
		return &Result{Frame: jr.Frame, Prov: polys}, nil

	case KindProject:
		in := ins[0]
		out, err := in.Frame.Select(n.columns...)
		if err != nil {
			return nil, err
		}
		return &Result{Frame: out, Prov: in.Prov}, nil

	case KindMapCol:
		in := ins[0]
		out, err := in.Frame.Map(n.mapCol, n.mapKind, n.mapFn)
		if err != nil {
			return nil, err
		}
		return &Result{Frame: out, Prov: in.Prov}, nil

	}
	return nil, fmt.Errorf("unknown node kind %v", n.kind)
}

// Replay re-executes the pipeline with some source tuples removed, by
// filtering each source frame before execution. removed maps a source tuple
// id to true when it should be dropped. This is the ground-truth
// intervention that provenance polynomials predict; it is used by tests and
// by exact group-importance computations.
func (p *Pipeline) Replay(out *Node, removed func(prov.TupleID) bool) (*Result, error) {
	clone := New()
	clone.inspections = nil
	mapping := make(map[int]*Node, len(p.nodes))
	for _, n := range p.nodes {
		var nn *Node
		switch n.kind {
		case KindSource:
			kept, _ := n.sourceFrame.Filter(func(r frame.Row) bool {
				return !removed(prov.TupleID{Table: n.sourceName, Row: r.Index()})
			})
			nn = clone.Source(n.sourceName, kept)
		default:
			inputs := make([]*Node, len(n.inputs))
			for i, in := range n.inputs {
				inputs[i] = mapping[in.id]
			}
			c := *n
			c.inputs = inputs
			nn = clone.add(&c)
		}
		mapping[n.id] = nn
	}
	return clone.Run(mapping[out.id])
}
