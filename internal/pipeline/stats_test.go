package pipeline

import (
	"strings"
	"testing"

	"nde/internal/frame"
	"nde/internal/obs"
)

// diamondFixture builds a DAG where one filter feeds two branches that are
// joined back together — the shared sub-plan whose single execution the
// memo must guarantee.
func diamondFixture(t *testing.T) (*Pipeline, *Node, *Node) {
	t.Helper()
	src := frame.MustNew(
		frame.NewIntSeries("a", []int64{1, 2, 3, 4, 5, 6}, nil),
	)
	p := New()
	s := p.Source("t", src)
	shared := p.Filter(s, "a >= 2", func(r frame.Row) bool { return r.Value("a").Int() >= 2 })
	left := p.Filter(shared, "a <= 4", func(r frame.Row) bool { return r.Value("a").Int() <= 4 })
	right := p.Project(shared, "a")
	out := p.Join(left, right, "a", frame.InnerJoin)
	return p, out, shared
}

// runWithStats runs out with obs enabled, so the run collects
// per-operator stats, and returns them.
func runWithStats(t *testing.T, p *Pipeline, out *Node) (*Result, *RunStats) {
	t.Helper()
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	res, err := p.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	return res, p.LastRunStats()
}

// Regression: a sub-plan consumed by two parents executes exactly once per
// run; the second consumer is served from the memo. Previously this
// behavior was invisible — RunStats now exposes it.
func TestMemoSharedSubPlanExecutesOnce(t *testing.T) {
	p, out, shared := diamondFixture(t)
	res, rs := runWithStats(t, p, out)
	if res.Frame.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Frame.NumRows())
	}
	if rs == nil {
		t.Fatal("an obs-enabled Run collected no stats")
	}
	// 5 distinct operators: source, shared filter, two branches, join
	if rs.MemoMisses != 5 {
		t.Errorf("memo misses = %d, want 5 (one per distinct operator)", rs.MemoMisses)
	}
	if rs.MemoHits != 1 {
		t.Errorf("memo hits = %d, want 1 (shared filter reused once)", rs.MemoHits)
	}
	st := rs.Nodes[shared.ID()]
	if st == nil {
		t.Fatal("no stats for shared node")
	}
	if st.MemoHits != 1 {
		t.Errorf("shared node memo hits = %d, want 1", st.MemoHits)
	}
	if st.RowsIn != 6 || st.RowsOut != 5 {
		t.Errorf("shared node rows = %d→%d, want 6→5", st.RowsIn, st.RowsOut)
	}
	if len(rs.Nodes) != 5 {
		t.Errorf("stats cover %d nodes, want 5", len(rs.Nodes))
	}
	if rs.Wall <= 0 {
		t.Errorf("run wall = %v, want > 0", rs.Wall)
	}
}

func TestRunWithoutStatsCollectsNothing(t *testing.T) {
	p, out, _ := diamondFixture(t)
	if _, err := p.Run(out); err != nil {
		t.Fatal(err)
	}
	if rs := p.LastRunStats(); rs != nil {
		t.Errorf("plain Run collected stats: %+v", rs)
	}
	if _, rs := runWithStats(t, p, out); rs == nil {
		t.Error("an obs-enabled Run collected no stats")
	}
}

func TestRenderPlanWithCosts(t *testing.T) {
	p, out := hiringFixture(t)
	// before any run: identical shape to the plain plan, no annotations
	if plan := p.RenderPlanWithCosts(out); strings.Contains(plan, "rows,") {
		t.Errorf("unexpected annotations before run:\n%s", plan)
	}
	runWithStats(t, p, out)
	plan := p.RenderPlanWithCosts(out)
	if !strings.Contains(plan, "rows,") {
		t.Errorf("plan missing cost annotations:\n%s", plan)
	}
	if !strings.Contains(plan, "Source(train: 4 rows)  [0→4 rows,") {
		t.Errorf("source annotation missing:\n%s", plan)
	}
	// every non-shared line is annotated
	for _, line := range strings.Split(plan, "\n") {
		if !strings.Contains(line, "rows,") {
			t.Errorf("unannotated line %q in:\n%s", line, plan)
		}
	}
}

// With obs enabled, one span per executed operator is recorded with kind
// and rows in/out, nested under the pipeline.run root.
func TestRunEmitsOperatorSpans(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	obs.DefaultTracer().CaptureAllocs(false)

	p, out := hiringFixture(t)
	if _, err := p.Run(out); err != nil {
		t.Fatal(err)
	}
	roots := obs.DefaultTracer().Roots()
	if len(roots) != 1 || roots[0].Name() != "pipeline.run" {
		t.Fatalf("roots = %v", roots)
	}
	ops := 0
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name() == "pipeline.op" {
			ops++
			if _, ok := s.Attr("kind"); !ok {
				t.Errorf("op span missing kind attr")
			}
			if _, ok := s.Attr("rows_out"); !ok {
				t.Errorf("op span missing rows_out attr")
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(roots[0])
	// hiring fixture: 3 sources + 2 joins + filter + mapcol + project = 8 ops
	if ops != 8 {
		t.Errorf("operator spans = %d, want 8", ops)
	}
	if hits := obs.Default().Counter("pipeline_memo_misses_total").Value(); hits != 8 {
		t.Errorf("memo misses counter = %d, want 8", hits)
	}
}
