package pipeline

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nde/internal/frame"
	"nde/internal/prov"
)

// hiringFixture builds the Figure-3 style pipeline: train ⋈ jobdetail ⋈
// social, filtered to healthcare, with a has_twitter UDF column.
func hiringFixture(t *testing.T) (*Pipeline, *Node) {
	t.Helper()
	train := frame.MustNew(
		frame.NewIntSeries("person_id", []int64{1, 2, 3, 4}, nil),
		frame.NewIntSeries("job_id", []int64{10, 20, 10, 30}, nil),
		frame.NewStringSeries("letter", []string{"great", "poor", "strong", "weak"}, nil),
		frame.NewStringSeries("sentiment", []string{"positive", "negative", "positive", "negative"}, nil),
	)
	jobs := frame.MustNew(
		frame.NewIntSeries("job_id", []int64{10, 20, 30}, nil),
		frame.NewStringSeries("sector", []string{"healthcare", "finance", "healthcare"}, nil),
	)
	social := frame.MustNew(
		frame.NewIntSeries("person_id", []int64{1, 3, 4}, nil),
		frame.NewStringSeries("twitter", []string{"@a", "", "@d"}, []bool{true, false, true}),
	)
	p := New()
	tr := p.Source("train", train)
	jo := p.Source("jobs", jobs)
	so := p.Source("social", social)
	joined := p.Join(tr, jo, "job_id", frame.InnerJoin)
	joined = p.JoinOn(joined, so, []string{"person_id"}, []string{"person_id"}, frame.LeftJoin)
	filtered := p.Filter(joined, `sector == "healthcare"`, func(r frame.Row) bool {
		return r.Str("sector") == "healthcare"
	})
	withTw := p.MapCol(filtered, "has_twitter", frame.KindBool, func(r frame.Row) (frame.Value, error) {
		return frame.Bool(!r.IsNull("twitter")), nil
	})
	out := p.Project(withTw, "person_id", "letter", "sentiment", "has_twitter")
	return p, out
}

func TestPipelineRunShapes(t *testing.T) {
	p, out := hiringFixture(t)
	res, err := p.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	// healthcare rows: persons 1, 3 (job 10) and 4 (job 30)
	if res.Frame.NumRows() != 3 {
		t.Fatalf("rows = %d\n%v", res.Frame.NumRows(), res.Frame)
	}
	cols := res.Frame.ColumnNames()
	if len(cols) != 4 || cols[3] != "has_twitter" {
		t.Errorf("columns = %v", cols)
	}
	ht := res.Frame.MustColumn("has_twitter")
	if !ht.Value(0).Equal(frame.Bool(true)) || !ht.Value(1).Equal(frame.Bool(false)) || !ht.Value(2).Equal(frame.Bool(true)) {
		t.Errorf("has_twitter wrong: %v", res.Frame)
	}
}

func TestPipelineProvenance(t *testing.T) {
	p, out := hiringFixture(t)
	res, err := p.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	// first output row: person 1 = train[0] ⋈ jobs[0] ⋈ social[0]
	vars := res.Prov[0]
	want := map[prov.TupleID]bool{
		{Table: "train", Row: 0}:  true,
		{Table: "jobs", Row: 0}:   true,
		{Table: "social", Row: 0}: true,
	}
	if len(vars) != 3 {
		t.Fatalf("prov[0] = %v", res.Prov[0])
	}
	for _, v := range vars {
		if !want[v] {
			t.Errorf("unexpected var %v", v)
		}
	}
	// person 3 (train[2]) matched social[1] (null twitter but present row):
	// three source tuples
	vars1 := res.Prov[1]
	if len(vars1) != 3 || !slices.Contains(vars1, prov.TupleID{Table: "social", Row: 1}) {
		t.Errorf("prov[1] = %v", res.Prov[1])
	}
}

func TestRenderPlanAndDot(t *testing.T) {
	p, out := hiringFixture(t)
	plan := p.RenderPlan(out)
	for _, want := range []string{"Project", "MapCol(has_twitter)", "Filter", "Join", "Source(train: 4 rows)"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	dot := p.Dot(out)
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Errorf("dot output unexpected:\n%s", dot)
	}
}

func TestRenderPlanSharedNode(t *testing.T) {
	p := New()
	src := p.Source("t", frame.MustNew(frame.NewIntSeries("a", []int64{1, 2}, nil)))
	c := p.Join(src, src, "a", frame.InnerJoin)
	plan := p.RenderPlan(c)
	if !strings.Contains(plan, "shared") {
		t.Errorf("shared node not marked:\n%s", plan)
	}
}

func TestPipelineErrorsPropagate(t *testing.T) {
	p := New()
	src := p.Source("t", frame.MustNew(frame.NewIntSeries("a", []int64{1}, nil)))
	bad := p.Project(src, "missing_column")
	if _, err := p.Run(bad); err == nil {
		t.Error("expected error for missing column")
	}
}

func TestReplayRemovesSourceTuples(t *testing.T) {
	p, out := hiringFixture(t)
	// remove jobs[0] (the healthcare job 10): persons 1 and 3 disappear
	res, err := p.Replay(out, func(id prov.TupleID) bool {
		return id.Table == "jobs" && id.Row == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.NumRows() != 1 {
		t.Fatalf("rows after removal = %d\n%v", res.Frame.NumRows(), res.Frame)
	}
	if res.Frame.MustColumn("person_id").Int(0) != 4 {
		t.Error("wrong survivor")
	}
}

// Removing a tuple of a left join's null-supplying side is outside the
// provenance contract. The matched row's product names the social tuple,
// so provenance drops the row; Replay keeps it, re-padded with a null
// twitter. Both answers are pinned here, so that a fix (rejecting such
// removals, or re-featurizing the rows) changes them on purpose.
func TestLeftJoinNullSideRemovalLeavesContract(t *testing.T) {
	p, out := hiringFixture(t)
	full, err := p.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	persons := full.Frame.MustColumn("person_id")
	for row, person := range []int64{1, 3, 4} {
		gone := prov.TupleID{Table: "social", Row: row}
		var predicted []int64
		for i, pr := range full.Prov {
			if !slices.Contains(pr, gone) {
				predicted = append(predicted, persons.Int(i))
			}
		}
		if len(predicted) != 2 || slices.Contains(predicted, person) {
			t.Errorf("without %v, provenance keeps persons %v, want all but %d", gone, predicted, person)
		}
		replayed, err := p.Replay(out, func(id prov.TupleID) bool { return id == gone })
		if err != nil {
			t.Fatal(err)
		}
		got := replayed.Frame.MustColumn("person_id")
		tw := replayed.Frame.MustColumn("has_twitter")
		if got.Len() != 3 {
			t.Fatalf("without %v, replay keeps %d rows, want 3\n%v", gone, got.Len(), replayed.Frame)
		}
		for i, want := range []int64{1, 3, 4} {
			if got.Int(i) != want {
				t.Errorf("without %v, replay row %d is person %d, want %d", gone, i, got.Int(i), want)
			}
			if want == person && !tw.Value(i).Equal(frame.Bool(false)) {
				t.Errorf("without %v, replay keeps person %d with has_twitter %v, want false", gone, person, tw.Value(i))
			}
		}
	}
}

// Property: for random subsets of removed source tuples outside a left
// join's null-supplying side, an output row survives a replay of the
// pipeline with those tuples removed exactly when its provenance product
// names none of them. The pipeline mixes an inner join, a left join that
// leaves some rows unmatched, a filter, a map column and a projection.
// This is the correctness contract that what-if analyses and
// pipeline-aware data importance (Datascope) rely on.
func TestQuickProvenancePredictsReplay(t *testing.T) {
	buildFixture := func() (*Pipeline, *Node, map[string]int) {
		train := frame.MustNew(
			frame.NewIntSeries("person_id", []int64{1, 2, 3, 4, 5, 6}, nil),
			frame.NewIntSeries("job_id", []int64{10, 20, 10, 30, 20, 40}, nil),
			frame.NewIntSeries("score", []int64{5, 3, 4, 2, 5, 1}, nil),
		)
		jobs := frame.MustNew(
			frame.NewIntSeries("job_id", []int64{10, 20, 30, 40}, nil),
			frame.NewStringSeries("sector", []string{"health", "finance", "health", "retail"}, nil),
		)
		// persons 2, 5 and 6 have no social row; person 7 is no applicant
		social := frame.MustNew(
			frame.NewIntSeries("person_id", []int64{1, 3, 4, 7}, nil),
			frame.NewStringSeries("twitter", []string{"@a", "", "@d", "@g"}, []bool{true, false, true, true}),
		)
		p := New()
		tr := p.Source("train", train)
		jo := p.Source("jobs", jobs)
		so := p.Source("social", social)
		joined := p.Join(tr, jo, "job_id", frame.InnerJoin)
		joined = p.JoinOn(joined, so, []string{"person_id"}, []string{"person_id"}, frame.LeftJoin)
		filtered := p.Filter(joined, "score >= 2", func(r frame.Row) bool { return r.Value("score").Int() >= 2 })
		withTw := p.MapCol(filtered, "has_twitter", frame.KindBool, func(r frame.Row) (frame.Value, error) {
			return frame.Bool(!r.IsNull("twitter")), nil
		})
		out := p.Project(withTw, "person_id", "sector", "has_twitter")
		sizes := map[string]int{"train": 6, "jobs": 4}
		return p, out, sizes
	}

	prop := func(seed int64) bool {
		p, out, sizes := buildFixture()
		full, err := p.Run(out)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		removed := make(map[prov.TupleID]bool)
		for table, n := range sizes {
			for row := 0; row < n; row++ {
				if r.Float64() < 0.4 {
					removed[prov.TupleID{Table: table, Row: row}] = true
				}
			}
		}
		isRemoved := func(id prov.TupleID) bool { return removed[id] }
		replayed, err := p.Replay(out, isRemoved)
		if err != nil {
			return false
		}
		// predicted survivors via provenance
		var predicted []int64
		var predictedTw []frame.Value
		for i := 0; i < full.Frame.NumRows(); i++ {
			if !slices.ContainsFunc(full.Prov[i], isRemoved) {
				predicted = append(predicted, full.Frame.MustColumn("person_id").Int(i))
				predictedTw = append(predictedTw, full.Frame.MustColumn("has_twitter").Value(i))
			}
		}
		actual := replayed.Frame.MustColumn("person_id")
		actualTw := replayed.Frame.MustColumn("has_twitter")
		if len(predicted) != actual.Len() {
			return false
		}
		for i, want := range predicted {
			if actual.Int(i) != want || !actualTw.Value(i).Equal(predictedTw[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
