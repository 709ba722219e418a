package nde_test

// Fault-injection suite: every exported facade entry point is swept with
// corrupted inputs — NaN/Inf feature columns, nil and zero-row tables,
// single-class label sets, shape mismatches, out-of-range k — and must
// return an error in the ErrDegenerateInput family without panicking.
// A final test pins the clean baseline: corrupting copies must not
// perturb results on the original data, bit for bit.

import (
	"errors"
	"math"
	"testing"

	"nde"
	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/testutil"
)

type faultCase struct {
	name string
	call func() error
}

// mustDegenerate runs each case and requires an ErrDegenerateInput-family
// error; a panic anywhere is a test failure, not a crash.
func mustDegenerate(t *testing.T, cases []faultCase) {
	t.Helper()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			err := c.call()
			if err == nil {
				t.Fatal("expected an error, got nil")
			}
			if !errors.Is(err, nde.ErrDegenerateInput) {
				t.Errorf("error outside the ErrDegenerateInput family: %v", err)
			}
		})
	}
}

func TestFaultInjectionLetterFrames(t *testing.T) {
	s := nde.LoadRecommendationLetters(150, 42)
	nanF, err := testutil.PoisonColumn(s.Train, "employer_rating", math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	infF, err := testutil.PoisonColumn(s.Train, "employer_rating", math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	emptyF := testutil.EmptyLike(s.Train)

	for _, corrupt := range []struct {
		class string
		f     *nde.Frame
	}{
		{"nil-frame", nil},
		{"empty-frame", emptyF},
		{"nan-features", nanF},
		{"inf-features", infF},
	} {
		corrupt := corrupt
		t.Run(corrupt.class, func(t *testing.T) {
			cases := []faultCase{
				{"FeaturizeLetters", func() error {
					_, err := nde.FeaturizeLetters(corrupt.f)
					return err
				}},
				{"FeaturizeLetterSplits/train", func() error {
					_, _, _, err := nde.FeaturizeLetterSplits(corrupt.f, s.Valid, s.Test)
					return err
				}},
				{"FeaturizeLetterSplits/valid", func() error {
					_, _, _, err := nde.FeaturizeLetterSplits(s.Train, corrupt.f, s.Test)
					return err
				}},
				{"EvaluateModel/train", func() error {
					_, err := nde.EvaluateModel(corrupt.f, s.Test)
					return err
				}},
				{"EvaluateModel/test", func() error {
					_, err := nde.EvaluateModel(s.Train, corrupt.f)
					return err
				}},
				{"KNNShapleyValues/train", func() error {
					_, err := nde.KNNShapleyValues(corrupt.f, s.Valid, 5)
					return err
				}},
				{"KNNShapleyValues/valid", func() error {
					_, err := nde.KNNShapleyValues(s.Train, corrupt.f, 5)
					return err
				}},
				{"BuildHiringPipeline+WithProvenance", func() error {
					// NaN letters legally pass construction (only columns
					// are checked there); the poison must surface at
					// featurization instead.
					hp, err := nde.BuildHiringPipeline(corrupt.f, s.Data.Jobs, s.Data.Social)
					if err != nil {
						return err
					}
					_, err = hp.WithProvenance()
					return err
				}},
			}
			if corrupt.class == "nil-frame" || corrupt.class == "empty-frame" {
				cases = append(cases,
					faultCase{"InjectLabelErrors", func() error {
						_, _, err := nde.InjectLabelErrors(corrupt.f, 0.1, 1)
						return err
					}},
					faultCase{"ScreenTrainTestLeakage", func() error {
						_, err := nde.ScreenTrainTestLeakage(corrupt.f, s.Test)
						return err
					}},
					faultCase{"PrettyPrint", func() error {
						_, err := nde.PrettyPrint(corrupt.f, []int{0})
						return err
					}},
				)
			}
			mustDegenerate(t, cases)
		})
	}
}

func TestFaultInjectionDatasets(t *testing.T) {
	s := nde.LoadRecommendationLetters(150, 42)
	dTrain, dValid, dTest, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	truth := append([]int(nil), dTrain.Y...)
	attrVals := make([]string, dTrain.Len())
	for i := range attrVals {
		attrVals[i] = []string{"a", "b"}[i%2]
	}
	attrs := frame.MustNew(frame.NewStringSeries("grp", attrVals, nil))
	sym, _, err := nde.EncodeSymbolic(dTrain, 0, 0.2, nde.MNAR, 3)
	if err != nil {
		t.Fatal(err)
	}

	nanDS := testutil.PoisonDataset(dTrain, 3, 1, math.NaN())
	infDS := testutil.PoisonDataset(dTrain, 3, 1, math.Inf(-1))
	oneDS := testutil.SingleClassDataset(dTrain)
	emptyDS := dTrain.Subset(nil)

	for _, corrupt := range []struct {
		class string
		d     *nde.Dataset
	}{
		{"nil-dataset", nil},
		{"zero-row-dataset", emptyDS},
		{"nan-cell", nanDS},
		{"inf-cell", infDS},
		{"single-class-labels", oneDS},
	} {
		corrupt := corrupt
		trainSide := []faultCase{
			{"SelfConfidenceScores", func() error {
				_, err := nde.SelfConfidenceScores(corrupt.d, 1)
				return err
			}},
			{"MarginScores", func() error {
				_, err := nde.MarginScores(corrupt.d, 1)
				return err
			}},
			{"InfluenceScores/train", func() error {
				_, err := nde.InfluenceScores(corrupt.d, dValid)
				return err
			}},
			{"DataShapleyScores", func() error {
				_, err := nde.DataShapleyScores(corrupt.d, dValid, 4, 1)
				return err
			}},
			{"IterativeCleaning", func() error {
				_, err := nde.IterativeCleaning(corrupt.d, dValid, dTest, truth, 5, 10)
				return err
			}},
			{"FairnessExplanations", func() error {
				_, _, err := nde.FairnessExplanations(corrupt.d, attrs, dValid, 3)
				return err
			}},
		}
		// Entry points that only need a well-formed dataset, not a
		// trainable one: a single-class set is legal there by design
		// (dirty data may collapse to one label), so it is only swept
		// through the trainable-side cases above.
		pairSide := []faultCase{
			{"InfluenceScores/valid", func() error {
				_, err := nde.InfluenceScores(dTrain, corrupt.d)
				return err
			}},
			{"EncodeSymbolic", func() error {
				_, _, err := nde.EncodeSymbolic(corrupt.d, 0, 0.2, nde.MNAR, 3)
				return err
			}},
			{"NewDebuggingChallenge", func() error {
				_, err := nde.NewDebuggingChallenge(corrupt.d, truth, dValid, dTest, 10)
				return err
			}},
			{"ZorroAnalysis/test", func() error {
				_, err := nde.ZorroAnalysis(sym, corrupt.d, 3, 1)
				return err
			}},
			{"CertainPredictionFraction/test", func() error {
				_, _, err := nde.CertainPredictionFraction(sym, corrupt.d, 3)
				return err
			}},
			{"PossibleWorlds/base", func() error {
				_, err := nde.PossibleWorlds(corrupt.d, nil, dTest, 4)
				return err
			}},
		}
		t.Run(corrupt.class, func(t *testing.T) {
			mustDegenerate(t, trainSide)
			if corrupt.class != "single-class-labels" {
				mustDegenerate(t, pairSide)
			}
		})
	}

	t.Run("single-class-dirty-challenge-is-legal", func(t *testing.T) {
		// A dirty training set is allowed to be single-class: the whole
		// point of the challenge is that cleaning restores the labels.
		if _, err := nde.NewDebuggingChallenge(oneDS, truth, dValid, dTest, 10); err != nil {
			t.Fatalf("single-class dirty set should be accepted: %v", err)
		}
	})
}

func TestFaultInjectionShapeAndK(t *testing.T) {
	s := nde.LoadRecommendationLetters(150, 42)
	dTrain, dValid, dTest, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	truth := append([]int(nil), dTrain.Y...)
	sym, _, err := nde.EncodeSymbolic(dTrain, 0, 0.2, nde.MNAR, 3)
	if err != nil {
		t.Fatal(err)
	}
	wideY := make([]int, dValid.Len())
	for i := range wideY {
		wideY[i] = i % 2
	}
	wide, err := ml.NewDataset(linalg.NewMatrix(dValid.Len(), dTrain.Dim()+1), wideY)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []faultCase{
		{"KNNShapleyValues/k>n", func() error {
			_, err := nde.KNNShapleyValues(s.Train, s.Valid, 100000)
			return err
		}},
		{"CertainPredictionFraction/k>n", func() error {
			_, _, err := nde.CertainPredictionFraction(sym, dTest, 100000)
			return err
		}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(); !errors.Is(err, nde.ErrBadK) {
				t.Fatalf("want ErrBadK, got %v", err)
			}
		})
	}

	for _, c := range []faultCase{
		{"InfluenceScores/dim-mismatch", func() error {
			_, err := nde.InfluenceScores(dTrain, wide)
			return err
		}},
		{"DataShapleyScores/dim-mismatch", func() error {
			_, err := nde.DataShapleyScores(dTrain, wide, 4, 1)
			return err
		}},
		{"IterativeCleaning/short-truth", func() error {
			_, err := nde.IterativeCleaning(dTrain, dValid, dTest, truth[:5], 5, 10)
			return err
		}},
		{"PrettyPrintWithScores/short-scores", func() error {
			_, err := nde.PrettyPrintWithScores(s.Train, []int{0}, make(nde.Scores, 3))
			return err
		}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(); !errors.Is(err, nde.ErrShapeMismatch) {
				t.Fatalf("want ErrShapeMismatch, got %v", err)
			}
		})
	}

	negTruth := append([]int(nil), truth...)
	negTruth[3] = -1
	mustDegenerate(t, []faultCase{
		{"IterativeCleaning/negative-truth", func() error {
			_, err := nde.IterativeCleaning(dTrain, dValid, dTest, negTruth, 5, 10)
			return err
		}},
	})

	t.Run("single-class-is-ErrSingleClass", func(t *testing.T) {
		if _, err := nde.SelfConfidenceScores(testutil.SingleClassDataset(dTrain), 1); !errors.Is(err, nde.ErrSingleClass) {
			t.Fatalf("want ErrSingleClass, got %v", err)
		}
	})
	t.Run("nan-is-ErrNonFinite", func(t *testing.T) {
		if _, err := nde.MarginScores(testutil.PoisonDataset(dTrain, 0, 0, math.NaN()), 1); !errors.Is(err, nde.ErrNonFinite) {
			t.Fatalf("want ErrNonFinite, got %v", err)
		}
	})
}

func TestFaultInjectionPipelineEntryPoints(t *testing.T) {
	s := nde.LoadRecommendationLetters(150, 42)
	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := hp.WithProvenance()
	if err != nil {
		t.Fatal(err)
	}
	likeY := make([]int, 6)
	for i := range likeY {
		likeY[i] = i % 2
	}
	validLike, err := ml.NewDataset(linalg.NewMatrix(6, ft.Data.Dim()), likeY)
	if err != nil {
		t.Fatal(err)
	}

	mustDegenerate(t, []faultCase{
		{"WhatIf/nil-featurized", func() error {
			_, err := nde.WhatIf(nil, nil, validLike)
			return err
		}},
		{"DatascopeScores/nil-featurized", func() error {
			_, err := hp.DatascopeScores(nil, validLike, 1)
			return err
		}},
		{"GroupShapleyScores/nil-featurized", func() error {
			_, err := hp.GroupShapleyScores(nil, validLike, 1)
			return err
		}},
		{"RemoveAndEvaluate/bad-row", func() error {
			_, _, err := nde.RemoveAndEvaluate(ft, []int{-3}, validLike)
			return err
		}},
		{"RemoveAndEvaluate/nil-valid", func() error {
			_, _, err := nde.RemoveAndEvaluate(ft, []int{0}, nil)
			return err
		}},
	})
}

// TestCleanBaselineSurvivesFaultSweep pins the bugfix contract: corrupting
// copies of the data must leave results on the original inputs bit-for-bit
// identical, and repeated clean runs are deterministic.
func TestCleanBaselineSurvivesFaultSweep(t *testing.T) {
	s := nde.LoadRecommendationLetters(150, 42)
	accBefore, err := nde.EvaluateModel(s.Train, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	scoresBefore, err := nde.KNNShapleyValues(s.Train, s.Valid, 5)
	if err != nil {
		t.Fatal(err)
	}

	nanF, err := testutil.PoisonColumn(s.Train, "employer_rating", math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = nde.FeaturizeLetters(nanF)
	_, _ = nde.KNNShapleyValues(nanF, s.Valid, 5)
	_, _ = nde.EvaluateModel(nanF, s.Test)
	_, _ = nde.FeaturizeLetters(testutil.EmptyLike(s.Train))

	accAfter, err := nde.EvaluateModel(s.Train, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	if accAfter != accBefore {
		t.Errorf("clean accuracy changed after fault sweep: %v -> %v", accBefore, accAfter)
	}
	scoresAfter, err := nde.KNNShapleyValues(s.Train, s.Valid, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(scoresAfter) != len(scoresBefore) {
		t.Fatalf("score length changed: %d -> %d", len(scoresBefore), len(scoresAfter))
	}
	for i := range scoresBefore {
		if scoresBefore[i] != scoresAfter[i] {
			t.Fatalf("score %d changed after fault sweep: %v -> %v", i, scoresBefore[i], scoresAfter[i])
		}
	}
}
