package ml

import (
	"math"
	"math/rand"
	"testing"

	"nde/internal/linalg"
)

// clusteredDataset draws n rows around c Gaussian blob centers — data with
// enough structure for IVF partitioning to be meaningful.
func clusteredDataset(r *rand.Rand, n, dim, c, classes int) *Dataset {
	centers := linalg.NewMatrix(c, dim)
	for i := range centers.Data {
		centers.Data[i] = r.NormFloat64() * 10
	}
	x := linalg.NewMatrix(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		ctr := centers.Row(r.Intn(c))
		row := x.Row(i)
		for j := range row {
			row[j] = ctr[j] + r.NormFloat64()
		}
		y[i] = r.Intn(classes)
	}
	d, _ := NewDataset(x, y)
	return d
}

// Bit-identity: Exact mode under the new Mode plumbing must match the
// default NeighborIndex (the pre-change behavior) exactly — same D2 bits,
// same orders, same top-k, same batch predictions — across worker counts.
// The ANN knobs select nothing on the exact path, so every exact config
// fingerprints like the zero config and shares its store entry.
func TestExactModeBitIdenticalToDefaultIndex(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	train := clusteredDataset(r, 120, 6, 5, 3)
	queries := clusteredDataset(r, 30, 6, 5, 3)
	base, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		ix, err := NewNeighborIndexSearch(train, queries, w, SearchConfig{Mode: SearchExact})
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.EffectiveMode(); got != SearchExact {
			t.Fatalf("workers=%d: effective mode %v, want exact", w, got)
		}
		bd2, gd2 := base.D2(), ix.D2()
		for i := range bd2.Data {
			if math.Float64bits(bd2.Data[i]) != math.Float64bits(gd2.Data[i]) {
				t.Fatalf("workers=%d: D2 element %d differs bitwise", w, i)
			}
		}
		for q := 0; q < queries.Len(); q++ {
			bo, gg := base.Order(q), ix.Order(q)
			for i := range bo {
				if bo[i] != gg[i] {
					t.Fatalf("workers=%d query %d: order rank %d differs", w, q, i)
				}
			}
			bt, gt := base.TopK(q, 7), ix.TopK(q, 7)
			for i := range bt {
				if bt[i] != gt[i] {
					t.Fatalf("workers=%d query %d: top-k rank %d differs", w, q, i)
				}
			}
		}
		bp, gp := base.PredictBatch(5), ix.PredictBatch(5)
		for q := range bp {
			if bp[q] != gp[q] {
				t.Fatalf("workers=%d: prediction %d differs", w, q)
			}
		}
	}
	knobs := SearchConfig{NLists: 9, NProbe: 7, Seed: 42, ProjectDim: 3, RecallFloor: 0.5, ExactThreshold: 10}
	if knobs.Fingerprint() != (SearchConfig{}).Fingerprint() {
		t.Error("exact config with ANN knobs set fingerprints apart from the zero config")
	}
	knobs.Mode = SearchIVF
	if knobs.Fingerprint() == (SearchConfig{Mode: SearchIVF}).Fingerprint() {
		t.Error("IVF configs with different knobs share a fingerprint")
	}
}

// IVF mode must serve approximate answers that agree with the exact path
// on clustered data at a high rate, return full-length results, and be
// deterministic across worker counts.
func TestIVFModeTopK(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	train := clusteredDataset(r, 1500, 8, 12, 3)
	queries := clusteredDataset(r, 40, 8, 12, 3)
	cfg := SearchConfig{Mode: SearchIVF, Seed: 3, NProbe: 10}
	ix, err := NewNeighborIndexSearch(train, queries, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.EffectiveMode(); got != SearchIVF {
		t.Fatalf("effective mode %v, want ivf", got)
	}
	exact, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	hits, total := 0, 0
	for q := 0; q < queries.Len(); q++ {
		got := ix.TopK(q, k)
		if len(got) != k {
			t.Fatalf("query %d: %d results, want %d", q, len(got), k)
		}
		truth := map[int]bool{}
		for _, i := range exact.TopK(q, k) {
			truth[i] = true
		}
		for _, i := range got {
			if truth[i] {
				hits++
			}
		}
		total += k
	}
	if rec := float64(hits) / float64(total); rec < 0.9 {
		t.Errorf("IVF agreement with exact = %.3f, want >= 0.9", rec)
	}
	// same config, different workers: identical answers
	ix2, err := NewNeighborIndexSearch(train, queries, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries.Len(); q++ {
		a, b := ix.TopK(q, k), ix2.TopK(q, k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("worker counts disagree at query %d rank %d", q, i)
			}
		}
	}
}

// Auto mode stays exact below the size threshold and certifies recall
// above it; RecallEstimate reports the certification.
func TestAutoModeThresholdAndCertification(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	small := clusteredDataset(r, 200, 6, 4, 2)
	queries := clusteredDataset(r, 20, 6, 4, 2)
	ix, err := NewNeighborIndexSearch(small, queries, 1, SearchConfig{Mode: SearchAuto, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.EffectiveMode(); got != SearchExact {
		t.Fatalf("small auto index mode %v, want exact (below threshold)", got)
	}
	if rec := ix.RecallEstimate(); rec != 1 {
		t.Fatalf("exact fallback recall %v, want 1", rec)
	}

	big := clusteredDataset(r, 5000, 8, 16, 2)
	bigQueries := clusteredDataset(r, 20, 8, 16, 2)
	ax, err := NewNeighborIndexSearch(big, bigQueries, 0, SearchConfig{Mode: SearchAuto, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.EffectiveMode(); got != SearchIVF {
		t.Fatalf("large auto index mode %v, want ivf", got)
	}
	if rec := ax.RecallEstimate(); rec < DefaultRecallFloor {
		t.Fatalf("certified recall %.3f below floor %.2f yet IVF is serving", rec, DefaultRecallFloor)
	}

	// an explicit low threshold flips a small index to IVF
	ex, err := NewNeighborIndexSearch(small, queries, 1, SearchConfig{Mode: SearchAuto, Seed: 1, ExactThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.EffectiveMode(); got != SearchIVF {
		t.Fatalf("low-threshold auto mode %v, want ivf", got)
	}
}

// An unreachable recall floor must certify-fail and fall back to exact —
// and then answer bit-identically to the exact index.
func TestAutoModeUncertifiableFallsBackExact(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	// pure high-d noise: every partition borders every other, so recall at
	// tiny nprobe is poor, and the floor of 1.0 is unreachable in any case
	train := randomNeighborDataset(r, 1200, 24, 2)
	queries := randomNeighborDataset(r, 10, 24, 2)
	ix, err := NewNeighborIndexSearch(train, queries, 1, SearchConfig{
		Mode: SearchAuto, Seed: 5, ExactThreshold: 100, RecallFloor: 1.0, NLists: 64, NProbe: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// the floor can only be met by probing everything; if even that fails
	// (float32 near-ties), the index must serve exact
	mode := ix.EffectiveMode()
	if mode == SearchIVF {
		if rec := ix.RecallEstimate(); rec < 1.0 {
			t.Fatalf("IVF serving with recall %.3f under floor 1.0", rec)
		}
		return
	}
	exact, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries.Len(); q++ {
		a, b := ix.TopK(q, 5), exact.TopK(q, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("fallback index diverges from exact at query %d rank %d", q, i)
			}
		}
	}
}

// PredictBatch under IVF mode must equal per-row prediction over the same
// approximate index (scratch reuse must not change answers).
func TestPredictBatchIVFMatchesPredictRow(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	train := clusteredDataset(r, 1000, 6, 8, 3)
	queries := clusteredDataset(r, 50, 6, 8, 3)
	ix, err := NewNeighborIndexSearch(train, queries, 3, SearchConfig{Mode: SearchIVF, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	batch := ix.PredictBatch(5)
	for q := range batch {
		if want := ix.PredictRow(q, 5); batch[q] != want {
			t.Fatalf("query %d: batch %d vs row %d", q, batch[q], want)
		}
	}
}

func TestParseSearchMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SearchMode
		ok   bool
	}{
		{"exact", SearchExact, true}, {"", SearchExact, true},
		{"ivf", SearchIVF, true}, {"auto", SearchAuto, true},
		{"fancy", SearchExact, false},
	} {
		got, ok := ParseSearchMode(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseSearchMode(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, m := range []SearchMode{SearchExact, SearchIVF, SearchAuto} {
		back, ok := ParseSearchMode(m.String())
		if !ok || back != m {
			t.Errorf("round trip of %v failed", m)
		}
	}
}
