package nde

import (
	"fmt"
	"math/rand"
	"time"

	"nde/internal/datagen"
	"nde/internal/encode"
	"nde/internal/frame"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/pipeline"
	"nde/internal/uncertain"
)

// Re-exported core types, so downstream code can use the facade without
// importing internal packages directly.
type (
	// Frame is a typed, null-aware columnar table.
	Frame = frame.Frame
	// Series is one named column of a Frame.
	Series = frame.Series
	// Value is a dynamically typed cell.
	Value = frame.Value
	// Dataset is a feature matrix with labels (and optional groups).
	Dataset = ml.Dataset
	// Classifier is any trainable model.
	Classifier = ml.Classifier
	// Scores holds one importance value per training example.
	Scores = importance.Scores
	// Pipeline is a provenance-tracked preprocessing DAG.
	Pipeline = pipeline.Pipeline
	// Node is one pipeline operator.
	Node = pipeline.Node
	// Featurized is a pipeline output with provenance.
	Featurized = pipeline.Featurized
	// SymbolicDataset has interval-valued (uncertain) feature cells.
	SymbolicDataset = uncertain.SymbolicDataset
	// Interval is a closed real interval.
	Interval = uncertain.Interval
	// HiringData bundles the synthetic scenario tables.
	HiringData = datagen.HiringData
)

// HiringScenario is the hands-on dataset: the generated tables plus a
// deterministic train/valid/test split of the letters table.
type HiringScenario struct {
	Data  *datagen.HiringData
	Train *Frame
	Valid *Frame
	Test  *Frame
}

// LoadRecommendationLetters regenerates the tutorial's synthetic hiring
// scenario and splits the letters 60/20/20 — the Go analogue of
// nde.load_recommendation_letters(). n <= 0 falls back to the default 300.
func LoadRecommendationLetters(n int, seed int64) *HiringScenario {
	if n <= 0 {
		n = 300
	}
	h := datagen.Hiring(datagen.Config{N: n, Seed: seed})
	s, err := ScenarioFromData(h, seed)
	if err != nil {
		// The generator always emits a well-formed letters table of n rows;
		// a split failure here is a programmer bug, not a data error.
		panic(err)
	}
	return s
}

// ScenarioFromData splits an externally loaded scenario (for example one
// read back from CSV files via datagen.LoadHiringCSV) into the standard
// deterministic 60/20/20 letters split. Unlike LoadRecommendationLetters,
// the tables come from the outside world, so degenerate ones (nil or empty
// letters) are reported as errors.
func ScenarioFromData(h *HiringData, seed int64) (_ *HiringScenario, err error) {
	rows := 0
	if h != nil {
		rows = frameRows(h.Letters)
	}
	defer recordOp("ScenarioFromData", time.Now(), rows, 0, &err)
	if h == nil {
		return nil, nderr.Empty("nde: scenario data is nil")
	}
	if err := checkFrame("letters", h.Letters); err != nil {
		return nil, err
	}
	n := h.Letters.NumRows()
	perm := rand.New(rand.NewSource(seed + 1)).Perm(n)
	nTrain := n * 6 / 10
	nValid := n * 2 / 10
	return &HiringScenario{
		Data:  h,
		Train: h.Letters.Take(perm[:nTrain]),
		Valid: h.Letters.Take(perm[nTrain : nTrain+nValid]),
		Test:  h.Letters.Take(perm[nTrain+nValid:]),
	}, nil
}

// LetterFeaturizer returns the default encoder for letters frames: a
// 64-bucket hashing bag-of-words of the letter text plus the standardized
// employer rating.
func LetterFeaturizer() *encode.ColumnTransformer {
	return encode.NewColumnTransformer(
		encode.ColumnSpec{Column: "letter_text", Encoder: encode.NewHashingVectorizer(64)},
		encode.ColumnSpec{
			Column:  "employer_rating",
			Imputer: encode.NewImputer(encode.ImputeMean),
			Encoder: encode.NewStandardScaler(),
		},
	)
}

// FeaturizeLetters encodes a letters frame into a model-ready dataset with
// sentiment labels (negative=0, positive=1). The featurizer is fitted on
// the given frame; to featurize several splits consistently use
// FeaturizeLetterSplits.
func FeaturizeLetters(f *Frame) (_ *Dataset, err error) {
	defer recordOp("FeaturizeLetters", time.Now(), frameRows(f), 0, &err)
	if err := checkFrame("letters", f, "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	return featurizeWith(LetterFeaturizer(), f, true)
}

// FeaturizeLetterSplits fits the default featurizer on train and applies it
// to all three splits, the leakage-free protocol.
func FeaturizeLetterSplits(train, valid, test *Frame) (dTrain, dValid, dTest *Dataset, err error) {
	defer recordOp("FeaturizeLetterSplits", time.Now(), frameRows(train), 0, &err)
	for _, s := range []struct {
		what string
		f    *Frame
	}{{"train", train}, {"valid", valid}, {"test", test}} {
		if err := checkFrame(s.what+" letters", s.f, "letter_text", "employer_rating", "sentiment"); err != nil {
			return nil, nil, nil, err
		}
	}
	ct := LetterFeaturizer()
	if dTrain, err = featurizeWith(ct, train, true); err != nil {
		return nil, nil, nil, err
	}
	if dValid, err = featurizeWith(ct, valid, false); err != nil {
		return nil, nil, nil, err
	}
	if dTest, err = featurizeWith(ct, test, false); err != nil {
		return nil, nil, nil, err
	}
	return dTrain, dValid, dTest, nil
}

func featurizeWith(ct *encode.ColumnTransformer, f *Frame, fit bool) (*Dataset, error) {
	var err error
	if fit {
		err = ct.Fit(f)
		if err != nil {
			return nil, err
		}
	}
	x, err := ct.Transform(f)
	if err != nil {
		return nil, err
	}
	labels, err := f.Column("sentiment")
	if err != nil {
		return nil, err
	}
	y := make([]int, labels.Len())
	for i := range y {
		if labels.IsNull(i) {
			// Wrap the family root so nde.ErrorClass classifies a null
			// label as degenerate input instead of an opaque "error".
			return nil, fmt.Errorf("nde: null sentiment at row %d: %w", i, nderr.ErrDegenerateInput)
		}
		if labels.Str(i) == "positive" {
			y[i] = 1
		}
	}
	return ml.NewDataset(x, y)
}

// defaultK is DefaultModel's neighborhood.
const defaultK = 5

// DefaultModel returns the classifier used by the facade's evaluation
// helpers: a 5-nearest-neighbor vote, the tutorial's proxy model of choice.
func DefaultModel() Classifier { return ml.NewKNN(defaultK) }

// EvaluateModel featurizes train and test letters (fitting the encoder on
// train), trains the default model, and returns test accuracy — the Go
// analogue of nde.evaluate_model(train_df).
func EvaluateModel(train, test *Frame) (_ float64, err error) {
	defer recordOp("EvaluateModel", time.Now(), frameRows(train), 0, &err)
	if err := checkFrame("train letters", train, "letter_text", "employer_rating", "sentiment"); err != nil {
		return 0, err
	}
	if err := checkFrame("test letters", test, "letter_text", "employer_rating", "sentiment"); err != nil {
		return 0, err
	}
	ct := LetterFeaturizer()
	dTrain, err := featurizeWith(ct, train, true)
	if err != nil {
		return 0, err
	}
	dTest, err := featurizeWith(ct, test, false)
	if err != nil {
		return 0, err
	}
	return ml.EvaluateAccuracy(DefaultModel(), dTrain, dTest)
}

// InjectLabelErrors flips the sentiment labels of a random fraction of
// letters and reports which rows were corrupted — the Go analogue of
// nde.inject_labelerrors(train_df, fraction=0.1).
func InjectLabelErrors(f *Frame, fraction float64, seed int64) (_ *Frame, _ map[int]bool, err error) {
	defer recordOp("InjectLabelErrors", time.Now(), frameRows(f), 0, &err)
	if err := checkFrame("letters", f, "sentiment"); err != nil {
		return nil, nil, err
	}
	return datagen.InjectLabelErrors(f, "sentiment", fraction, seed)
}

// KNNShapleyValues featurizes the letters splits and computes exact
// kNN-Shapley importance of every training letter against the validation
// split — the Go analogue of nde.knn_shapley_values(train_df_err,
// validation=valid_df). k <= 0 falls back to the default 5; k larger than
// the training-set size is rejected with ErrBadK.
func KNNShapleyValues(train, valid *Frame, k int) (_ Scores, err error) {
	cache := ""
	defer recordOpCache("KNNShapleyValues", time.Now(), frameRows(train), &cache, &err)
	outcome := indexCacheOutcome()
	defer func() { cache = outcome() }()
	if err := checkFrame("train letters", train, "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	if err := checkFrame("valid letters", valid, "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	ct := LetterFeaturizer()
	dTrain, err := featurizeWith(ct, train, true)
	if err != nil {
		return nil, err
	}
	dValid, err := featurizeWith(ct, valid, false)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 5
	}
	if err := checkK("kNN-Shapley", k, dTrain.Len()); err != nil {
		return nil, err
	}
	if err := checkTrainable("train letters", dTrain); err != nil {
		return nil, err
	}
	ix, err := storedIndex(dTrain, dValid, 1)
	if err != nil {
		return nil, err
	}
	return importance.KNNShapleyWithIndex(k, ix, dTrain.Y, dValid.Y, 1)
}

// PrettyPrint renders the given rows of a frame as an aligned table — the
// Go analogue of nde.pretty_print(train_df_err[lowest]). Out-of-range row
// indices are reported as an error rather than panicking.
func PrettyPrint(f *Frame, rows []int) (_ string, err error) {
	defer recordOp("PrettyPrint", time.Now(), len(rows), 0, &err)
	if f == nil {
		return "", nderr.Empty("nde: frame is nil")
	}
	if err := checkRows("PrettyPrint", rows, f.NumRows()); err != nil {
		return "", err
	}
	return f.Take(rows).Render(0), nil
}

// PrettyPrintWithScores renders the given rows with an extra "importance"
// column — the exact display of the tutorial's Figure 2, where the
// suspicious letters appear next to their importance values.
func PrettyPrintWithScores(f *Frame, rows []int, scores Scores) (_ string, err error) {
	defer recordOp("PrettyPrintWithScores", time.Now(), len(rows), 0, &err)
	if f == nil {
		return "", nderr.Empty("nde: frame is nil")
	}
	if len(scores) != f.NumRows() {
		return "", fmt.Errorf("nde: %d scores for %d rows: %w", len(scores), f.NumRows(), nderr.ErrShapeMismatch)
	}
	if err := checkRows("PrettyPrintWithScores", rows, f.NumRows()); err != nil {
		return "", err
	}
	sub := f.Take(rows)
	vals := make([]float64, len(rows))
	for o, i := range rows {
		vals[o] = scores[i]
	}
	out, err := sub.WithColumn(frame.NewFloatSeries("importance", vals, nil))
	if err != nil {
		return "", err
	}
	return out.Render(0), nil
}
