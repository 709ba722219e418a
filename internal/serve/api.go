package serve

// Wire types for the nde-serve JSON API. Every error response uses the
// same envelope:
//
//	{"error": "<human message>", "class": "<machine class>"}
//
// where class is either an HTTP-layer class (bad_request, not_found,
// method_not_allowed, body_too_large, busy, draining) or the nderr
// sentinel class of a failed computation (nde.ErrorClass), so clients
// switch on class without parsing message text.

// MatrixSpec is one split of a dataset: either an inline CSV document
// (numeric feature columns plus an integer label column) or an inline
// matrix. Exactly one of CSV and X must be set.
type MatrixSpec struct {
	// CSV is a full CSV document with a header row. All columns except
	// the label column must be numeric.
	CSV string `json:"csv,omitempty"`
	// Label names the CSV label column; default "label". Ignored for
	// inline matrices.
	Label string `json:"label,omitempty"`
	// X is the inline feature matrix, row-major.
	X [][]float64 `json:"x,omitempty"`
	// Y is the inline label vector, parallel to X.
	Y []int `json:"y,omitempty"`
}

// RegisterRequest registers a dataset. Train and Valid are required; Test
// and Truth unlock /v1/cleaning (Truth is the ground-truth label vector
// for the train split, standing in for the cleaning oracle).
type RegisterRequest struct {
	Name  string      `json:"name,omitempty"`
	Train *MatrixSpec `json:"train"`
	Valid *MatrixSpec `json:"valid"`
	Test  *MatrixSpec `json:"test,omitempty"`
	Truth []int       `json:"truth,omitempty"`
}

// RegisterResponse reports the content-addressed dataset id. Registering
// the same content twice returns the same id.
type RegisterResponse struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	TrainRows int    `json:"train_rows"`
	ValidRows int    `json:"valid_rows"`
	TestRows  int    `json:"test_rows,omitempty"`
	Dim       int    `json:"dim"`
}

// ImportanceRequest scores every training row with kNN-Shapley.
type ImportanceRequest struct {
	Dataset string `json:"dataset"`
	// K is the Shapley neighborhood size; default 5.
	K int `json:"k,omitempty"`
	// Workers bounds the worker pool for this call (<= 0 = auto).
	Workers int `json:"workers,omitempty"`
	// Async queues the computation and returns a run id for /v1/runs.
	Async bool `json:"async,omitempty"`
}

// ImportanceResponse carries one Shapley value per training row.
type ImportanceResponse struct {
	Dataset string    `json:"dataset"`
	K       int       `json:"k"`
	Scores  []float64 `json:"scores"`
}

// WhatIfVariant is one counterfactual: drop the given train rows.
type WhatIfVariant struct {
	Name   string `json:"name"`
	Remove []int  `json:"remove"`
}

// WhatIfRequest evaluates removal variants against the registered
// dataset (identity provenance: source tuple i is train row i).
type WhatIfRequest struct {
	Dataset  string          `json:"dataset"`
	Variants []WhatIfVariant `json:"variants"`
	Workers  int             `json:"workers,omitempty"`
	Async    bool            `json:"async,omitempty"`
}

// WhatIfResultJSON is one variant outcome. Metric is the validation
// accuracy after retraining without the removed rows; a variant that
// removes every row reports surviving 0 and a null metric.
type WhatIfResultJSON struct {
	Name      string   `json:"name"`
	Metric    *float64 `json:"metric"` // null when no rows survive
	Surviving int      `json:"surviving"`
}

// WhatIfResponse carries the variant outcomes in request order.
type WhatIfResponse struct {
	Dataset  string             `json:"dataset"`
	Baseline float64            `json:"baseline"`
	Results  []WhatIfResultJSON `json:"results"`
}

// CleaningRequest compares cleaning strategies on a dataset registered
// with test data and ground-truth labels.
type CleaningRequest struct {
	Dataset string `json:"dataset"`
	// Strategies to compare, each named at most once; default ["random",
	// "knn-shapley"]. Known: random, knn-shapley, loo, noise-score,
	// influence.
	Strategies []string `json:"strategies,omitempty"`
	// Batch is the rows cleaned per round; default 10.
	Batch int `json:"batch,omitempty"`
	// Budget is the total oracle calls; default 50.
	Budget  int  `json:"budget,omitempty"`
	Workers int  `json:"workers,omitempty"`
	Async   bool `json:"async,omitempty"`
}

// CurvePointJSON is one cleaning-curve point.
type CurvePointJSON struct {
	Cleaned  int     `json:"cleaned"`
	Accuracy float64 `json:"accuracy"`
}

// CleaningStrategyResult is one strategy's cleaning curve and its
// area-under-curve summary (higher is better).
type CleaningStrategyResult struct {
	Strategy string           `json:"strategy"`
	AUC      float64          `json:"auc"`
	Curve    []CurvePointJSON `json:"curve"`
}

// CleaningResponse carries per-strategy results in request order.
type CleaningResponse struct {
	Dataset string                   `json:"dataset"`
	Results []CleaningStrategyResult `json:"results"`
}

// RunResponse is the /v1/runs/{id} poll result. Result is present only
// in state "done"; Error and Class only in state "error".
type RunResponse struct {
	ID     string `json:"id"`
	Op     string `json:"op"`
	State  string `json:"state"` // running | done | error
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	Class  string `json:"class,omitempty"`
}

// AsyncAccepted is the 202 response to a request with async=true.
type AsyncAccepted struct {
	Run string `json:"run"`
}

// ErrorResponse is the uniform error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
	Class string `json:"class"`
}
