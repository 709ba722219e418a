package ml

import (
	"sync"

	"nde/internal/ann"
	"nde/internal/linalg"
	"nde/internal/obs"
)

// SearchMode selects how a NeighborIndex answers top-k queries.
type SearchMode int

const (
	// SearchExact is the pre-existing exact path: float64 Gram-trick
	// distance matrix + quickselect. It is the determinism oracle — results
	// are bit-for-bit identical across worker counts and releases.
	SearchExact SearchMode = iota
	// SearchIVF answers TopK from the approximate IVF index
	// (internal/ann): float32 kernels, k-means partitions, nprobe lists
	// scanned per query. Sub-linear in the training size; recall < 1.
	SearchIVF
	// SearchAuto picks per index: exact below ExactThreshold training
	// rows, otherwise IVF — but only after certifying the configured
	// recall floor on a sample; if the floor cannot be certified the index
	// silently serves the exact path instead.
	SearchAuto
)

// String names the mode for logs and flags.
func (m SearchMode) String() string {
	switch m {
	case SearchIVF:
		return "ivf"
	case SearchAuto:
		return "auto"
	default:
		return "exact"
	}
}

// ParseSearchMode maps a flag string to a SearchMode ("exact", "ivf",
// "auto"); unknown strings report false.
func ParseSearchMode(s string) (SearchMode, bool) {
	switch s {
	case "exact", "":
		return SearchExact, true
	case "ivf":
		return SearchIVF, true
	case "auto":
		return SearchAuto, true
	}
	return SearchExact, false
}

// Defaults of the Auto-mode contract; SearchConfig zero values resolve to
// these.
const (
	// DefaultRecallFloor is the recall@k Auto mode certifies before it
	// serves approximate answers.
	DefaultRecallFloor = 0.95
	// DefaultExactThreshold is the training size below which Auto always
	// stays exact: small scans are faster than any index build.
	DefaultExactThreshold = 4096
	// DefaultCertifySample is how many sampled queries the certification
	// recall estimate uses.
	DefaultCertifySample = 16
	// DefaultCertifyK is the k the certification measures recall at.
	DefaultCertifyK = 10
)

// SearchConfig selects and tunes the neighbor-search backend of a
// NeighborIndex. The zero value is the exact path, so existing callers are
// untouched.
type SearchConfig struct {
	// Mode picks the backend (default SearchExact).
	Mode SearchMode
	// NLists is the IVF partition count (<= 0 = ~√n).
	NLists int
	// NProbe is the partitions scanned per query (<= 0 = NLists/8). Auto
	// mode may raise it while certifying the recall floor.
	NProbe int
	// Seed drives the deterministic k-means init and projection draw.
	Seed int64
	// ProjectDim > 0 routes probes through a random projection of this
	// dimensionality (high-d fallback); candidate ranking stays in the
	// original space.
	ProjectDim int
	// RecallFloor is the recall@CertifyK Auto must certify before serving
	// approximate answers (<= 0 = DefaultRecallFloor).
	RecallFloor float64
	// ExactThreshold is the training size below which Auto stays exact
	// (<= 0 = DefaultExactThreshold).
	ExactThreshold int
}

// annConfig maps the search knobs onto the ann build configuration.
func (c SearchConfig) annConfig(workers int) ann.Config {
	return ann.Config{
		NLists:     c.NLists,
		NProbe:     c.NProbe,
		Seed:       c.Seed,
		ProjectDim: c.ProjectDim,
		Workers:    workers,
	}
}

// recallFloor resolves the certification floor.
func (c SearchConfig) recallFloor() float64 {
	if c.RecallFloor <= 0 {
		return DefaultRecallFloor
	}
	return c.RecallFloor
}

// exactThreshold resolves the Auto exact/IVF size boundary.
func (c SearchConfig) exactThreshold() int {
	if c.ExactThreshold <= 0 {
		return DefaultExactThreshold
	}
	return c.ExactThreshold
}

// Fingerprint hashes every result-relevant knob, for cache keys: two
// indexes over the same data but different search configs must never
// alias. The exact path reads none of the ANN knobs, so every exact
// config hashes as the zero config and they share one index.
func (c SearchConfig) Fingerprint() uint64 {
	if c.Mode == SearchExact {
		c = SearchConfig{}
	}
	h := c.annConfig(0).Fingerprint()
	const prime64 = 1099511628211
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(int64(c.Mode)))
	mix(uint64(int64(c.exactThreshold())))
	mix(uint64(int64(c.recallFloor() * 1e6)))
	return h
}

// searchState is the lazily built ANN side of a NeighborIndex.
type searchState struct {
	once    sync.Once
	eff     SearchMode // resolved mode actually serving TopK
	ivf     *ann.Index
	recall  float64 // certification estimate (Auto mode; 1 when exact)
	q32Once sync.Once
	q32     *linalg.Matrix32 // float32 queries for probing
	scratch sync.Pool        // *ann.Scratch per concurrent caller
}

// ensureSearch resolves the effective mode once: builds the IVF index when
// the config asks for it, and in Auto mode certifies the recall floor —
// raising nprobe geometrically up to the full list count — before
// switching away from the exact oracle. Exact remains the fallback
// whenever the index cannot be built or certified.
func (ix *NeighborIndex) ensureSearch() {
	ix.search.once.Do(func() {
		st := &ix.search
		st.eff, st.recall = SearchExact, 1
		cfg := ix.Search
		if ix.delta != nil {
			// Derived indexes always serve exact: their value is reusing the
			// root's cached exact geometry, and an IVF build over the mutated
			// train would cost more than the delta saves (DESIGN §11).
			return
		}
		if cfg.Mode == SearchExact {
			return
		}
		if cfg.Mode == SearchAuto && ix.Train.Len() < cfg.exactThreshold() {
			obs.Inc("neighbor_ann_exact_fallback_total")
			return
		}
		sp := obs.StartSpan("neighbor.ann_build")
		sp.SetInt("train", int64(ix.Train.Len())).SetStr("mode", cfg.Mode.String())
		defer sp.End()
		ivf, err := ann.Build(ix.Train.X, cfg.annConfig(ix.Workers))
		if err != nil {
			// Train.X was validated at NewNeighborIndex time, but a caller
			// constructing the index literally can still get here; the
			// exact path handles whatever the build could not.
			obs.Inc("neighbor_ann_exact_fallback_total")
			return
		}
		if cfg.Mode == SearchAuto {
			floor := cfg.recallFloor()
			rec := ivf.EstimateRecall(DefaultCertifyK, DefaultCertifySample)
			for rec < floor && ivf.NProbe() < ivf.NLists() {
				ivf.SetNProbe(ivf.NProbe() * 2)
				rec = ivf.EstimateRecall(DefaultCertifyK, DefaultCertifySample)
			}
			st.recall = rec
			obs.SetGauge("neighbor_ann_certified_recall", rec)
			if rec < floor {
				obs.Inc("neighbor_ann_exact_fallback_total")
				return
			}
		}
		st.ivf = ivf
		st.eff = SearchIVF
		if obs.Enabled() {
			obs.SetGauge("neighbor_ann_nprobe", float64(ivf.NProbe()))
		}
	})
}

// EffectiveMode reports which backend actually serves TopK after the
// Auto-mode resolution: SearchExact or SearchIVF. Resolving may build and
// certify the ANN index on first call.
func (ix *NeighborIndex) EffectiveMode() SearchMode {
	ix.ensureSearch()
	return ix.search.eff
}

// RecallEstimate returns the certified recall estimate of the serving
// backend: 1 for the exact path, the sampled recall@10 for IVF under Auto,
// and 0 for explicit IVF mode (which skips certification — the caller
// asked for speed unconditionally). Like EffectiveMode, it resolves the
// index on first call.
func (ix *NeighborIndex) RecallEstimate() float64 {
	ix.ensureSearch()
	if ix.search.eff == SearchIVF && ix.Search.Mode == SearchIVF {
		return 0
	}
	return ix.search.recall
}

// queries32 lazily converts the query matrix to float32 for probing.
func (ix *NeighborIndex) queries32() *linalg.Matrix32 {
	ix.search.q32Once.Do(func() {
		ix.search.q32 = ix.Queries.X.ToMatrix32()
	})
	return ix.search.q32
}

// annScratch checks a probe scratch out of the pool.
func (ix *NeighborIndex) annScratch() *ann.Scratch {
	if s, ok := ix.search.scratch.Get().(*ann.Scratch); ok {
		return s
	}
	return &ann.Scratch{}
}

// annTopK answers one top-k query from the IVF index, or reports ok=false
// when the probed partitions held fewer than k rows — the per-query
// exactness-fallback contract (the caller reruns the query exactly).
// k must already be clamped to the training size.
func (ix *NeighborIndex) annTopK(qi, k int, scratch *ann.Scratch) ([]int, bool) {
	out := ix.search.ivf.TopK(ix.queries32().Row(qi), k, scratch)
	if len(out) < k {
		obs.Inc("neighbor_ann_partial_fallback_total")
		return nil, false
	}
	return out, true
}
