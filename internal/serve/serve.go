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
//   - Derived artifacts — the neighbor index (an ml.IndexStore), the
//     identity-provenance featurized table, encoded score replies and
//     what-if responses — live in singleflight internal/store caches the
//     Server owns: concurrent identical requests share one build instead
//     of duplicating work.
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
	"slices"
	"sync"

	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
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
	return c
}

const (
	// maxDatasets bounds the dataset registry; registering past it
	// evicts the oldest dataset.
	maxDatasets = 32
	// keepRuns bounds retained finished async runs.
	keepRuns = 256
)

// dataset is one registered dataset. Immutable after registration, but
// for its test index.
type dataset struct {
	id    string
	seq   uint64 // registration number, never reused: the derived stores' key
	name  string
	train *ml.Dataset
	valid *ml.Dataset
	test  *ml.Dataset // nil unless registered
	truth []int       // nil unless registered
	// key addresses the (train, valid) neighbor index in the server's
	// store; its fingerprints also feed the id, so they are hashed once.
	key ml.IndexKey

	// testIx is the (train, test) neighbor index /v1/cleaning re-votes
	// through, made by the first cleaning request with its workers. Its
	// top-k cache, built once by the first re-vote, holds every test
	// row's selection (4·K bytes a row) for as long as the dataset stays
	// registered, so later requests select nothing.
	testOnce sync.Once
	testIx   *ml.NeighborIndex
	testErr  error
}

// testIndex returns the dataset's (train, test) neighbor index, made on
// first use with the given workers.
func (d *dataset) testIndex(workers int) (*ml.NeighborIndex, error) {
	d.testOnce.Do(func() { d.testIx, d.testErr = ml.NewNeighborIndex(d.train, d.test, workers) })
	return d.testIx, d.testErr
}

// Server is the serving core. Create with NewServer, mount Handler.
type Server struct {
	cfg    Config
	budget *par.Budget
	runs   *runRegistry

	mu       sync.Mutex
	datasets map[string]*dataset
	dsOrder  []string // registration order for bounded eviction
	nextSeq  uint64   // the next dataset.seq

	// Derived-artifact caches, all singleflight (internal/store):
	// featurized tables keyed by dataset, encoded score replies keyed by
	// (dataset, k), what-if responses keyed by (dataset, variant list),
	// and neighbor indexes keyed by the dataset's key, where importance
	// scoring, what-if batches and every kNN-Shapley cleaning round on one
	// dataset find the same exact index. The first three key on the
	// dataset's registration number, not its id: an id that a forgery
	// takes once its first holder has left the registry finds none of
	// that holder's entries, and no entry keeps a dataset alive.
	featurized *store.Store[uint64, *pipeline.Featurized]
	scores     *store.Store[scoreKey, reply]
	whatifs    *store.Store[whatifKey, WhatIfResponse]
	indexes    *ml.IndexStore
}

type scoreKey struct {
	dataset uint64 // dataset.seq
	k       int
}

// whatifKey addresses one what-if batch: the dataset's registration
// number plus the injective encoding of the ordered variant names and removal rows
// (variantsKey). The worker
// count is deliberately NOT part of the key — results are bit-for-bit
// worker-invariant (the pipeline concurrency contract), so requests
// differing only in workers share one cached response.
type whatifKey struct {
	dataset  uint64 // dataset.seq
	variants string
}

// NewServer creates a serving core with the given configuration.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:        cfg,
		budget:     par.NewBudget("serve_budget", cfg.Slots, cfg.Queue),
		runs:       newRunRegistry(keepRuns),
		datasets:   map[string]*dataset{},
		featurized: store.New[uint64, *pipeline.Featurized]("serve_featurized", 8),
		scores:     store.New[scoreKey, reply]("serve_scores", 32),
		whatifs:    store.New[whatifKey, WhatIfResponse]("serve_whatif", 32),
		indexes:    ml.NewIndexStore(),
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
// identical content returns the existing id. An id is checked, not
// trusted: a dataset registered under it must hold the same splits bit
// for bit, labels and truth included. A registration whose id another
// content holds (a forged fingerprint) counts
// serve_dataset_id_collisions_total and takes the id with the first free
// suffix -1, -2, … instead.
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
		key:   ml.KeyOf(train, valid),
	}
	d.id = datasetID(d)

	s.mu.Lock()
	defer s.mu.Unlock()
	base := d.id
	for i := 1; ; i++ {
		existing, ok := s.datasets[d.id]
		if !ok {
			break
		}
		if sameContent(existing, d) {
			return existing, nil
		}
		obs.Inc("serve_dataset_id_collisions_total")
		d.id = fmt.Sprintf("%s-%d", base, i)
	}
	d.seq = s.nextSeq
	s.nextSeq++
	s.datasets[d.id] = d
	s.dsOrder = append(s.dsOrder, d.id)
	for len(s.datasets) > maxDatasets {
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
// the split fingerprints (train and valid from d.key) and label/truth
// vectors. Same content, same id.
func datasetID(d *dataset) string {
	h := fnv.New64a()
	write := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	write(d.key.Train)
	write(d.key.Queries)
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

// sameContent reports whether two datasets hold the same splits, labels
// and truth, features compared bit for bit.
func sameContent(a, b *dataset) bool {
	return sameSplit(a.train, b.train) && sameSplit(a.valid, b.valid) && sameSplit(a.test, b.test) && slices.Equal(a.truth, b.truth)
}

// sameSplit reports whether two splits (or two absent ones) hold the same
// features bit for bit and the same labels.
func sameSplit(x, y *ml.Dataset) bool {
	if x == nil || y == nil {
		return x == y
	}
	return linalg.SameBits(x.X, y.X) && slices.Equal(x.Y, y.Y)
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
// and becomes a feature. An empty feature cell reads as NaN, which
// ml.NewDataset refuses as it refuses any non-finite feature.
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
	return d, nil
}

// datasetFromMatrix materializes an inline row-major matrix + labels. Rows
// the register decoder laid end to end in one array become the matrix's
// data as they are; other rows (an encoding/json body) are copied.
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
	x := &linalg.Matrix{Rows: len(rows), Cols: dim, Data: rowsArray(rows, dim)}
	if x.Data == nil {
		x = linalg.NewMatrix(len(rows), dim)
		for r, row := range rows {
			if len(row) != dim {
				return nil, fmt.Errorf("%w: %s split row %d has %d features, row 0 has %d",
					nderr.ErrShapeMismatch, split, r, len(row), dim)
			}
			copy(x.Row(r), row)
		}
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		return nil, fmt.Errorf("%s split: %w", split, err)
	}
	return d, nil
}

// rowsArray returns the array that rows are consecutive windows of, dim
// elements each, or nil when they are not: element addresses decide, so
// the rows must start at rows[0]'s first element and follow one another
// within its capacity. dim is at least 1.
func rowsArray(rows [][]float64, dim int) []float64 {
	n := len(rows) * dim
	if cap(rows[0]) < n {
		return nil
	}
	flat := rows[0][:n:n]
	for r, row := range rows {
		if len(row) != dim || &row[0] != &flat[r*dim] {
			return nil
		}
	}
	return flat
}

// featurizedFor returns the identity-provenance featurized view of the
// dataset's train split (source tuple i = train row i), built at most
// once per dataset through the singleflight store. What-if removals
// filter it by provenance instead of replaying any pipeline.
func (s *Server) featurizedFor(d *dataset) (*pipeline.Featurized, error) {
	return s.featurized.GetOrBuild(d.seq, func() (*pipeline.Featurized, error) {
		// each row's product is its own tuple, all backed by one array
		ids := make(prov.Polynomial, d.train.Len())
		p := make([]prov.Polynomial, len(ids))
		for i := range ids {
			ids[i] = prov.TupleID{Table: "train", Row: i}
			p[i] = ids[i:][:1:1]
		}
		return &pipeline.Featurized{Data: d.train, Prov: p}, nil
	})
}
