package pipeline

import (
	"strings"
	"testing"

	"nde/internal/frame"
)

func TestRowCountAndNullInspections(t *testing.T) {
	p, out := hiringFixture(t)
	rows := NewRowCountInspection()
	p.AddInspection(rows)
	if _, err := p.Run(out); err != nil {
		t.Fatal(err)
	}
	if rows.Counts[out.ID()] != 3 {
		t.Errorf("output rows = %d", rows.Counts[out.ID()])
	}
}

func TestGroupDistributionInspectionMaxShift(t *testing.T) {
	// a filter that removes every "b" group row must show a large shift
	data := frame.MustNew(
		frame.NewStringSeries("grp", []string{"a", "a", "b", "b"}, nil),
		frame.NewIntSeries("v", []int64{1, 2, 3, 4}, nil),
	)
	p := New()
	src := p.Source("t", data)
	filtered := p.Filter(src, "v <= 2", func(r frame.Row) bool { return r.Value("v").Int() <= 2 })
	insp := NewGroupDistributionInspection("grp")
	p.AddInspection(insp)
	if _, err := p.Run(filtered); err != nil {
		t.Fatal(err)
	}
	shift, node := insp.MaxShift(p, filtered)
	if shift != 0.5 {
		t.Errorf("max shift = %v, want 0.5", shift)
	}
	if node == nil || node.kind != KindFilter {
		t.Errorf("shift attributed to %v", node)
	}
}

func TestGroupDistributionSkipsMissingColumn(t *testing.T) {
	data := frame.MustNew(frame.NewIntSeries("v", []int64{1}, nil))
	p := New()
	src := p.Source("t", data)
	insp := NewGroupDistributionInspection("grp")
	p.AddInspection(insp)
	if _, err := p.Run(src); err != nil {
		t.Fatal(err)
	}
	if len(insp.Dists) != 0 {
		t.Error("missing column should be skipped")
	}
}

func TestScreenLeakage(t *testing.T) {
	train := frame.MustNew(frame.NewIntSeries("id", []int64{1, 2, 3}, nil))
	testF := frame.MustNew(frame.NewIntSeries("id", []int64{3, 4}, nil))
	issues, err := ScreenLeakage(train, testF, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || issues[0].Severity != "error" {
		t.Fatalf("issues = %v", issues)
	}
	if !strings.Contains(issues[0].String(), "data-leakage") {
		t.Errorf("issue text = %s", issues[0])
	}
	clean := frame.MustNew(frame.NewIntSeries("id", []int64{9}, nil))
	issues, err = ScreenLeakage(train, clean, []string{"id"})
	if err != nil || len(issues) != 0 {
		t.Errorf("clean split should have no issues: %v %v", issues, err)
	}
	if _, err := ScreenLeakage(train, testF, []string{"nope"}); err == nil {
		t.Error("expected error for unknown key column")
	}
}

func TestScreenLabelShift(t *testing.T) {
	before := frame.MustNew(frame.NewStringSeries("y", []string{"p", "p", "n", "n"}, nil))
	after := frame.MustNew(frame.NewStringSeries("y", []string{"p", "p", "p", "n"}, nil))
	issues, err := ScreenLabelShift(before, after, "y", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 {
		t.Fatalf("issues = %v", issues)
	}
	issues, err = ScreenLabelShift(before, before, "y", 0.1)
	if err != nil || len(issues) != 0 {
		t.Error("identical distributions should pass")
	}
}

func TestScreenGroupCoverage(t *testing.T) {
	f := frame.MustNew(frame.NewStringSeries("g", []string{"a", "a", "a", "b"}, nil))
	issues, err := ScreenGroupCoverage(f, "g", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || !strings.Contains(issues[0].Detail, "b(1)") {
		t.Fatalf("issues = %v", issues)
	}
	issues, err = ScreenGroupCoverage(f, "g", 1)
	if err != nil || len(issues) != 0 {
		t.Error("all groups covered should pass")
	}
}
