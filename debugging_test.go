package nde

import (
	"testing"

	"nde/internal/datagen"
	"nde/internal/frame"
)

func debugFixture(t *testing.T) (dirty, valid, test *Dataset, truth []int, corrupted map[int]bool) {
	t.Helper()
	s := LoadRecommendationLetters(250, 21)
	dTrain, dValid, dTest, err := FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	truth = append([]int(nil), dTrain.Y...)
	dirty, corrupted, err = datagen.FlipDatasetLabels(dTrain, 0.15, 22)
	if err != nil {
		t.Fatal(err)
	}
	return dirty, dValid, dTest, truth, corrupted
}

func TestFacadeScoreWrappers(t *testing.T) {
	dirty, valid, _, _, corrupted := debugFixture(t)
	k := len(corrupted)
	for name, run := range map[string]func() (Scores, error){
		"self-confidence": func() (Scores, error) { return SelfConfidenceScores(dirty, 1) },
		"margin":          func() (Scores, error) { return MarginScores(dirty, 2) },
		"influence":       func() (Scores, error) { return InfluenceScores(dirty, valid) },
	} {
		scores, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prec := scores.PrecisionAtK(corrupted, k); prec < 0.5 {
			t.Errorf("%s precision@%d = %v", name, k, prec)
		}
	}
}

func TestDataShapleyScores(t *testing.T) {
	dirty, valid, _, _, corrupted := debugFixture(t)
	// TMC on the full set with few permutations is still informative
	scores, err := DataShapleyScores(dirty, valid, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != dirty.Len() {
		t.Fatalf("scores = %d", len(scores))
	}
	k := len(corrupted)
	if prec := scores.PrecisionAtK(corrupted, k); prec <= 0.15 {
		t.Errorf("tmc precision@%d = %v at baseline", k, prec)
	}
}

func TestIterativeCleaningFacade(t *testing.T) {
	dirty, valid, test, truth, corrupted := debugFixture(t)
	res, err := IterativeCleaning(dirty, valid, test, truth, 10, len(corrupted))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Curve[0].Accuracy
	last := res.Curve[len(res.Curve)-1].Accuracy
	if last < first {
		t.Errorf("cleaning decreased accuracy %v -> %v", first, last)
	}
}

func TestDebuggingChallengeFacade(t *testing.T) {
	dirty, valid, test, truth, corrupted := debugFixture(t)
	c, err := NewDebuggingChallenge(dirty, truth, valid, test, len(corrupted))
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.BaselineScore()
	if err != nil {
		t.Fatal(err)
	}
	scores, err := SelfConfidenceScores(c.Train(), 5)
	if err != nil {
		t.Fatal(err)
	}
	score, err := c.Submit(scores.BottomK(len(corrupted)))
	if err != nil {
		t.Fatal(err)
	}
	if score < base {
		t.Errorf("informed cleaning scored %v below baseline %v", score, base)
	}
}

func TestFairnessRangeFacade(t *testing.T) {
	dirty, valid, _, _, _ := debugFixture(t)
	// attach trivial groups to validation for the metric
	groups := make([]string, valid.Len())
	for i := range groups {
		groups[i] = []string{"a", "b"}[i%2]
	}
	gvalid, err := valid.WithGroups(groups)
	if err != nil {
		t.Fatal(err)
	}
	sym, _, err := EncodeSymbolic(dirty, dirty.Dim()-1, 0.2, MCAR, 7)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := EstimateFairnessRange(sym, gvalid, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Center < fr.Range.Lo || fr.Center > fr.Range.Hi {
		t.Errorf("center %v outside range %v", fr.Center, fr.Range)
	}
}

func TestRAGCorpusFacade(t *testing.T) {
	corpus, err := NewRAGCorpus(
		[]string{"great work ethic", "poor performance issues", "excellent results delivered", "failed expectations badly"},
		[]int{1, 0, 1, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := corpus.Answer("was the work great and excellent", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("answer = %d", got)
	}
}

func TestScreenTrainTestLeakageFacade(t *testing.T) {
	s := LoadRecommendationLetters(100, 31)
	issues, err := ScreenTrainTestLeakage(s.Train, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Errorf("clean splits flagged: %v", issues)
	}
	// force a leak
	leaked := s.Test.Take(append([]int{}, 0, 1))
	merged, _, _, err := frame.Concat(s.Train, leaked)
	if err != nil {
		t.Fatal(err)
	}
	issues, err = ScreenTrainTestLeakage(merged, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) == 0 {
		t.Error("leak not detected")
	}
}
