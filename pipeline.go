package nde

import (
	"fmt"
	"time"

	"nde/internal/encode"
	"nde/internal/frame"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/pipeline"
)

// HiringPipeline is the Figure-3 preprocessing pipeline built over the
// scenario tables: join letters with job details and social data, filter to
// the healthcare sector, derive has_twitter, and encode features.
type HiringPipeline struct {
	Pipeline *Pipeline
	Output   *Node
	// TrainRows is the number of rows of the letters source table, the
	// candidate set for source-tuple debugging.
	TrainRows int
	// Encoder is the column transformer fitted by WithProvenance; use it
	// to featurize validation data consistently.
	Encoder *encode.ColumnTransformer
}

// BuildHiringPipeline constructs the pipeline over a letters frame and the
// scenario side tables — the Go analogue of the def pipeline(train_df,
// jobdetail_df, social_df) snippet of Figure 3. The three frames are
// validated up front (non-nil, non-empty, join and projection columns
// present), so malformed inputs fail here with a wrapped error instead of
// somewhere inside the join operators.
func BuildHiringPipeline(letters *Frame, jobs, social *Frame) (_ *HiringPipeline, err error) {
	defer recordOp("BuildHiringPipeline", time.Now(), frameRows(letters), 0, &err)
	if err := checkFrame("letters", letters, "job_id", "person_id", "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	if err := checkFrame("jobs", jobs, "job_id", "sector"); err != nil {
		return nil, err
	}
	if err := checkFrame("social", social, "person_id", "twitter"); err != nil {
		return nil, err
	}
	p := pipeline.New()
	tr := p.Source("train", letters)
	jo := p.Source("jobs", jobs)
	so := p.Source("social", social)
	joined := p.Join(tr, jo, "job_id", frame.InnerJoin)
	joined = p.Join(joined, so, "person_id", frame.LeftJoin)
	filtered := p.Filter(joined, `sector == "healthcare"`, func(r frame.Row) bool {
		return !r.IsNull("sector") && r.Str("sector") == "healthcare"
	})
	withTwitter := p.MapCol(filtered, "has_twitter", frame.KindBool, func(r frame.Row) (frame.Value, error) {
		return frame.Bool(!r.IsNull("twitter")), nil
	})
	out := p.Project(withTwitter, "person_id", "letter_text", "employer_rating", "has_twitter", "sentiment")
	return &HiringPipeline{Pipeline: p, Output: out, TrainRows: letters.NumRows()}, nil
}

// ShowQueryPlan renders the pipeline's operator tree — the Go analogue of
// nde.show_query_plan(pipeline).
func (h *HiringPipeline) ShowQueryPlan() string { return h.Pipeline.RenderPlan(h.Output) }

// PipelineFeaturizer returns the encoder applied to the pipeline output:
// hashed letter text, standardized employer rating, one-hot has_twitter.
func PipelineFeaturizer() *encode.ColumnTransformer {
	return encode.NewColumnTransformer(
		encode.ColumnSpec{Column: "letter_text", Encoder: encode.NewHashingVectorizer(64)},
		encode.ColumnSpec{
			Column:  "employer_rating",
			Imputer: encode.NewImputer(encode.ImputeMean),
			Encoder: encode.NewStandardScaler(),
		},
		encode.ColumnSpec{Column: "has_twitter", Encoder: encode.NewOneHotEncoder()},
	)
}

// WithProvenance runs the pipeline and featurizes its output while keeping
// per-row provenance — the Go analogue of nde.with_provenance(pipeline(...)).
// The fitted encoder is stored on the receiver for consistent validation
// featurization.
func (h *HiringPipeline) WithProvenance() (_ *Featurized, err error) {
	defer recordOp("WithProvenance", time.Now(), h.TrainRows, 0, &err)
	res, err := h.Pipeline.Run(h.Output)
	if err != nil {
		return nil, err
	}
	ct := PipelineFeaturizer()
	ft, err := pipeline.Featurize(res, ct, "sentiment", "")
	if err != nil {
		return nil, err
	}
	h.Encoder = ct
	return ft, nil
}

// DatascopeScores computes source-tuple importance for the letters table of
// the pipeline via kNN-Shapley pushed through provenance — the Go analogue
// of nde.datascope(for=train_df_err, provenance=prov, validation=valid_df).
// valid must live in the same feature space as ft.Data; use
// FeaturizeValidationLike to build it.
func (h *HiringPipeline) DatascopeScores(ft *Featurized, valid *Dataset, k int) (_ Scores, err error) {
	defer recordOp("DatascopeScores", time.Now(), h.TrainRows, 0, &err)
	if ft == nil || ft.Data == nil {
		return nil, nderr.Empty("nde: featurized pipeline output is nil")
	}
	if err := checkPair("pipeline output", ft.Data, "valid", valid); err != nil {
		return nil, err
	}
	return importance.Datascope(ft, valid, "train", h.TrainRows, importance.DatascopeConfig{K: k})
}

// GroupShapleyScores computes exact Shapley values over the pipeline's
// provenance groups (fork-pipeline semantics; falls back to Monte Carlo
// beyond 20 groups) — the exact counterpart of DatascopeScores' additive
// aggregation.
func (h *HiringPipeline) GroupShapleyScores(ft *Featurized, valid *Dataset, k int) (_ Scores, err error) {
	defer recordOp("GroupShapleyScores", time.Now(), h.TrainRows, 0, &err)
	if ft == nil || ft.Data == nil {
		return nil, nderr.Empty("nde: featurized pipeline output is nil")
	}
	if err := checkPair("pipeline output", ft.Data, "valid", valid); err != nil {
		return nil, err
	}
	return importance.GroupShapley(ft, valid, "train", h.TrainRows, k, 50, 1)
}

// FeaturizeValidationLike pushes a validation letters frame through a copy
// of the pipeline structure (joins and derived columns, without the sector
// filter so all rows survive) and encodes it with the same fitted encoders
// used for ft. The resulting dataset is comparable with ft.Data.
func (h *HiringPipeline) FeaturizeValidationLike(valid *Frame, jobs, social *Frame, ct *encode.ColumnTransformer) (_ *Dataset, err error) {
	defer recordOp("FeaturizeValidationLike", time.Now(), frameRows(valid), 0, &err)
	if err := checkFrame("valid letters", valid, "job_id", "person_id", "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	if err := checkFrame("jobs", jobs, "job_id"); err != nil {
		return nil, err
	}
	if err := checkFrame("social", social, "person_id", "twitter"); err != nil {
		return nil, err
	}
	if ct == nil {
		return nil, nderr.Empty("nde: column transformer is nil (run WithProvenance first)")
	}
	p := pipeline.New()
	tr := p.Source("valid", valid)
	jo := p.Source("jobs", jobs)
	so := p.Source("social", social)
	joined := p.Join(tr, jo, "job_id", frame.InnerJoin)
	joined = p.Join(joined, so, "person_id", frame.LeftJoin)
	withTwitter := p.MapCol(joined, "has_twitter", frame.KindBool, func(r frame.Row) (frame.Value, error) {
		return frame.Bool(!r.IsNull("twitter")), nil
	})
	out := p.Project(withTwitter, "person_id", "letter_text", "employer_rating", "has_twitter", "sentiment")
	res, err := p.Run(out)
	if err != nil {
		return nil, err
	}
	x, err := ct.Transform(res.Frame)
	if err != nil {
		return nil, err
	}
	labels, err := res.Frame.Column("sentiment")
	if err != nil {
		return nil, err
	}
	y := make([]int, labels.Len())
	for i := range y {
		if labels.IsNull(i) {
			return nil, fmt.Errorf("nde: null sentiment at validation row %d: %w", i, nderr.ErrDegenerateInput)
		}
		if labels.Str(i) == "positive" {
			y[i] = 1
		}
	}
	return ml.NewDataset(x, y)
}

// RemoveAndEvaluate retrains the default model on the pipeline output with
// the given output rows removed and returns the accuracy change relative to
// training on all rows (negative = removal hurt) — the Go analogue of the
// nde.evaluate_change(X_train, X_train_clean) snippet.
func RemoveAndEvaluate(ft *Featurized, remove []int, valid *Dataset) (before, after float64, err error) {
	defer recordOp("RemoveAndEvaluate", time.Now(), len(remove), 0, &err)
	if ft == nil || ft.Data == nil {
		return 0, 0, nderr.Empty("nde: featurized pipeline output is nil")
	}
	if err := checkPair("pipeline output", ft.Data, "valid", valid); err != nil {
		return 0, 0, err
	}
	if err := checkRows("RemoveAndEvaluate", remove, ft.Data.Len()); err != nil {
		return 0, 0, err
	}
	before, err = ml.EvaluateAccuracy(DefaultModel(), ft.Data, valid)
	if err != nil {
		return 0, 0, err
	}
	rm := make(map[int]bool, len(remove))
	for _, i := range remove {
		rm[i] = true
	}
	rest, _ := ft.Data.Without(rm)
	after, err = ml.EvaluateAccuracy(DefaultModel(), rest, valid)
	if err != nil {
		return 0, 0, err
	}
	return before, after, nil
}
