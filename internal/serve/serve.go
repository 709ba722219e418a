// Package serve is the nde-serve daemon core: the data-debugging facade
// (kNN-Shapley importance, removal what-ifs, cleaning-strategy
// comparison) exposed as a JSON HTTP API over the stdlib mux, mounted
// alongside the ops telemetry plane (/metrics, /healthz, /readyz,
// /trace).
//
// Serving discipline:
//
//   - Datasets are registered once (POST /v1/datasets) and referenced by
//     a content-addressed id, so repeated scoring of the same data keys
//     into the same cached artifacts.
//   - Derived artifacts — the shared neighbor index (internal/
//     importance), the identity-provenance featurized table, and score
//     vectors — live in singleflight internal/store caches: concurrent
//     identical requests share one build instead of duplicating work.
//   - Admission is budgeted (internal/par.Budget): at most Slots
//     computations run concurrently, at most Queue callers wait, and
//     anything beyond that is shed with 429 instead of queueing without
//     bound.
//   - Drain (SIGTERM in cmd/nde-serve) flips /readyz to 503, stops
//     admitting new computations (503 class "draining"), waits for
//     in-flight ones — including async runs — then lets the caller shut
//     the listener down and flush the ledger.
package serve

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs/ops"
	"nde/internal/par"
	"nde/internal/pipeline"
	"nde/internal/prov"
	"nde/internal/store"
)

// Config tunes a Server. The zero value serves with defaults.
type Config struct {
	// Slots is the concurrent-computation budget (default 4).
	Slots int
	// Queue is how many computations may wait for a slot before new ones
	// are shed with 429 (default 8).
	Queue int
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxDatasets bounds the dataset registry; registering past it
	// evicts the oldest dataset (default 32).
	MaxDatasets int
	// KeepRuns bounds retained finished async runs (default 256).
	KeepRuns int
	// Ops configures the mounted telemetry plane. Its Ready func is
	// overridden to reflect drain state.
	Ops ops.Config
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 32
	}
	if c.KeepRuns <= 0 {
		c.KeepRuns = 256
	}
	return c
}

// dataset is one registered dataset. Immutable after registration.
type dataset struct {
	id    string
	name  string
	train *ml.Dataset
	valid *ml.Dataset
	test  *ml.Dataset // nil unless registered
	truth []int       // nil unless registered
}

// Server is the serving core. Create with NewServer, mount Handler.
type Server struct {
	cfg    Config
	budget *par.Budget
	runs   *runRegistry

	mu       sync.Mutex
	datasets map[string]*dataset
	dsOrder  []string // registration order for bounded eviction

	// Derived-artifact caches, all singleflight (internal/store):
	// featurized tables keyed by dataset id, score vectors keyed by
	// (dataset id, k), what-if responses keyed by (dataset id, variant
	// fingerprint). The neighbor-index store inside internal/importance is
	// shared process-wide and needs no wiring here.
	featurized *store.Store[string, *pipeline.Featurized]
	scores     *store.Store[scoreKey, []float64]
	whatifs    *store.Store[whatifKey, WhatIfResponse]
}

type scoreKey struct {
	dataset string
	k       int
}

// whatifKey addresses one what-if batch: the dataset id plus an FNV-1a
// fingerprint of the ordered variant names and removal rows. The worker
// count is deliberately NOT part of the key — results are bit-for-bit
// worker-invariant (the pipeline concurrency contract), so requests
// differing only in workers share one cached response.
type whatifKey struct {
	dataset  string
	variants uint64
}

// NewServer creates a serving core with the given configuration.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:        cfg,
		budget:     par.NewBudget("serve_budget", cfg.Slots, cfg.Queue),
		runs:       newRunRegistry(cfg.KeepRuns),
		datasets:   map[string]*dataset{},
		featurized: store.New[string, *pipeline.Featurized]("serve_featurized", 8),
		scores:     store.New[scoreKey, []float64]("serve_scores", 32),
		whatifs:    store.New[whatifKey, WhatIfResponse]("serve_whatif", 32),
	}
}

// Handler returns the full daemon handler: the /v1 API plus the ops
// plane, whose /readyz reports false while draining.
func (s *Server) Handler() http.Handler {
	opsCfg := s.cfg.Ops
	userReady := opsCfg.Ready
	opsCfg.Ready = func() bool {
		if s.Draining() {
			return false
		}
		return userReady == nil || userReady()
	}

	mux := http.NewServeMux()
	mux.Handle("/", ops.Handler(opsCfg))
	mux.HandleFunc("/v1/datasets", s.handleDatasets)
	mux.HandleFunc("/v1/importance", s.handleImportance)
	mux.HandleFunc("/v1/whatif", s.handleWhatIf)
	mux.HandleFunc("/v1/cleaning", s.handleCleaning)
	mux.HandleFunc("/v1/runs/", s.handleRuns)
	return mux
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.runs.isDraining() }

// Drain stops admitting new computations (readiness flips false, compute
// endpoints answer 503 class "draining") and blocks until every
// in-flight computation — sync handlers and async runs — has finished.
// The HTTP listener keeps serving so clients can poll /v1/runs for final
// results; shutting the listener down afterwards is the caller's job.
func (s *Server) Drain() {
	s.runs.drain()
}

// registerDataset validates a registration request, builds the splits,
// and stores the dataset under its content-addressed id. Registering
// identical content returns the existing id.
func (s *Server) registerDataset(req *RegisterRequest) (*dataset, error) {
	if req.Train == nil || req.Valid == nil {
		return nil, fmt.Errorf("%w: register needs train and valid splits", nderr.ErrEmptyInput)
	}
	train, err := buildDataset("train", req.Train)
	if err != nil {
		return nil, err
	}
	valid, err := buildDataset("valid", req.Valid)
	if err != nil {
		return nil, err
	}
	var test *ml.Dataset
	if req.Test != nil {
		if test, err = buildDataset("test", req.Test); err != nil {
			return nil, err
		}
	}
	if valid.Dim() != train.Dim() || (test != nil && test.Dim() != train.Dim()) {
		return nil, fmt.Errorf("%w: split dimensions differ", nderr.ErrShapeMismatch)
	}
	if req.Truth != nil && len(req.Truth) != train.Len() {
		return nil, fmt.Errorf("%w: truth has %d labels for %d train rows",
			nderr.ErrShapeMismatch, len(req.Truth), train.Len())
	}
	for i, y := range req.Truth {
		if y < 0 {
			return nil, fmt.Errorf("%w: truth has negative label %d at row %d", nderr.ErrDegenerateInput, y, i)
		}
	}

	d := &dataset{
		name:  req.Name,
		train: train,
		valid: valid,
		test:  test,
		truth: req.Truth,
	}
	d.id = datasetID(d)

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.datasets[d.id]; ok {
		return existing, nil
	}
	s.datasets[d.id] = d
	s.dsOrder = append(s.dsOrder, d.id)
	for len(s.datasets) > s.cfg.MaxDatasets {
		oldest := s.dsOrder[0]
		s.dsOrder = s.dsOrder[1:]
		delete(s.datasets, oldest)
	}
	return d, nil
}

// lookup returns a registered dataset by id.
func (s *Server) lookup(id string) (*dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[id]
	return d, ok
}

// datasetID derives the content-addressed id: an FNV-1a combination of
// the split fingerprints and label/truth vectors. Same content, same id.
func datasetID(d *dataset) string {
	h := fnv.New64a()
	write := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	write(d.train.X.Fingerprint())
	write(d.valid.X.Fingerprint())
	for _, y := range d.train.Y {
		write(uint64(int64(y)))
	}
	for _, y := range d.valid.Y {
		write(uint64(int64(y)))
	}
	if d.test != nil {
		write(d.test.X.Fingerprint())
		for _, y := range d.test.Y {
			write(uint64(int64(y)))
		}
	}
	for _, y := range d.truth {
		write(uint64(int64(y)))
	}
	return fmt.Sprintf("d-%016x", h.Sum64())
}

// buildDataset materializes one split from its wire spec.
func buildDataset(split string, spec *MatrixSpec) (*ml.Dataset, error) {
	switch {
	case spec.CSV != "" && spec.X != nil:
		return nil, fmt.Errorf("%w: %s split sets both csv and x", nderr.ErrShapeMismatch, split)
	case spec.CSV != "":
		return datasetFromCSV(split, spec.CSV, spec.Label)
	case spec.X != nil:
		return datasetFromMatrix(split, spec.X, spec.Y)
	default:
		return nil, fmt.Errorf("%w: %s split has neither csv nor x", nderr.ErrEmptyInput, split)
	}
}

// datasetFromCSV parses a headered CSV: the label column (default
// "label") becomes integer classes, every other column must be numeric
// and becomes a feature.
func datasetFromCSV(split, csv, labelCol string) (*ml.Dataset, error) {
	if labelCol == "" {
		labelCol = "label"
	}
	f, err := frame.ReadCSVString(csv)
	if err != nil {
		return nil, fmt.Errorf("%s split: %w", split, err)
	}
	labels, err := f.Column(labelCol)
	if err != nil {
		return nil, fmt.Errorf("%w: %s split has no label column %q", nderr.ErrShapeMismatch, split, labelCol)
	}
	rows := f.NumRows()
	y := make([]int, rows)
	for i := 0; i < rows; i++ {
		if labels.IsNull(i) {
			return nil, fmt.Errorf("%w: %s split: null label at row %d", nderr.ErrNonFinite, split, i)
		}
		y[i] = int(labels.Int(i))
	}
	var cols [][]float64
	var names []string
	for c := 0; c < f.NumCols(); c++ {
		s := f.ColumnAt(c)
		if s.Name() == labelCol {
			continue
		}
		vals, err := s.Floats()
		if err != nil {
			return nil, fmt.Errorf("%s split: %w", split, err)
		}
		cols = append(cols, vals)
		names = append(names, s.Name())
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: %s split has no feature columns", nderr.ErrEmptyInput, split)
	}
	x := linalg.NewMatrix(rows, len(cols))
	for c, vals := range cols {
		for r, v := range vals {
			x.Set(r, c, v)
		}
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		return nil, fmt.Errorf("%s split: %w", split, err)
	}
	if err := d.CheckFinite(); err != nil {
		return nil, fmt.Errorf("%s split: %w", split, err)
	}
	return d, nil
}

// datasetFromMatrix materializes an inline row-major matrix + labels.
func datasetFromMatrix(split string, rows [][]float64, y []int) (*ml.Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: %s split matrix is empty", nderr.ErrEmptyInput, split)
	}
	if len(y) != len(rows) {
		return nil, fmt.Errorf("%w: %s split has %d rows and %d labels",
			nderr.ErrShapeMismatch, split, len(rows), len(y))
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, fmt.Errorf("%w: %s split rows have no features", nderr.ErrEmptyInput, split)
	}
	x := linalg.NewMatrix(len(rows), dim)
	for r, row := range rows {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: %s split row %d has %d features, row 0 has %d",
				nderr.ErrShapeMismatch, split, r, len(row), dim)
		}
		for c, v := range row {
			x.Set(r, c, v)
		}
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		return nil, fmt.Errorf("%s split: %w", split, err)
	}
	if err := d.CheckFinite(); err != nil {
		return nil, fmt.Errorf("%s split: %w", split, err)
	}
	return d, nil
}

// featurizedFor returns the identity-provenance featurized view of the
// dataset's train split (source tuple i = train row i), built at most
// once per dataset through the singleflight store. What-if removals
// filter it by provenance instead of replaying any pipeline.
func (s *Server) featurizedFor(d *dataset) (*pipeline.Featurized, error) {
	return s.featurized.GetOrBuild(d.id, func() (*pipeline.Featurized, error) {
		p := make([]prov.Polynomial, d.train.Len())
		for i := range p {
			p[i] = prov.Var(prov.TupleID{Table: "train", Row: i})
		}
		return &pipeline.Featurized{Data: d.train, Prov: p}, nil
	})
}
