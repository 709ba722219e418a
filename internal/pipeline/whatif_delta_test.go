package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/prov"
)

func randomVariants(r *rand.Rand, n, count int) []RemovalVariant {
	variants := make([]RemovalVariant, count)
	for v := range variants {
		var remove []prov.TupleID
		for row := 0; row < n; row++ {
			if r.Float64() < 0.25 {
				remove = append(remove, prov.TupleID{Table: "train", Row: row})
			}
		}
		variants[v] = RemovalVariant{Name: fmt.Sprintf("v%d", v), Remove: remove}
	}
	return variants
}

// The kNN fast path (one index of the whole batch, every variant voted
// over its cached orders) must be bit-identical to the per-variant full
// rebuild, at every worker count — whether WhatIfRemovalsConfig builds the
// index or the caller passes one built with other labels (a store is
// keyed by features only, so labels must come from ft.Data.Y) — for an
// empty removal list, a variant that removes every row (NaN sentinel),
// duplicate removals, and a variant that removes a query's k nearest rows
// so its vote walks past them.
func TestWhatIfDeltaEqualsForceRebuild(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	r := rand.New(rand.NewSource(701))
	variants := randomVariants(r, 40, 10)
	variants = append(variants, RemovalVariant{Name: "none"})

	all := make([]prov.TupleID, 40)
	for i := range all {
		all[i] = prov.TupleID{Table: "train", Row: i}
	}
	dup := []prov.TupleID{{Table: "train", Row: 5}, {Table: "train", Row: 5}, {Table: "train", Row: 9}, {Table: "train", Row: 5}}
	probe, err := ml.NewNeighborIndex(ft.Data, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nearest []prov.TupleID
	for _, row := range probe.Order(0)[:3] {
		nearest = append(nearest, prov.TupleID{Table: "train", Row: row})
	}
	variants = append(variants,
		RemovalVariant{Name: "empty", Remove: []prov.TupleID{}},
		RemovalVariant{Name: "all", Remove: all},
		RemovalVariant{Name: "dup", Remove: dup},
		RemovalVariant{Name: "nearest", Remove: nearest},
	)

	oracle, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: 1, ForceRebuild: true})
	if err != nil {
		t.Fatal(err)
	}

	// an index over the same features under flipped labels, as a store
	// shared across label revisions hands out
	flipped := ft.Data.Clone()
	for i, y := range flipped.Y {
		flipped.Y[i] = 1 - y
	}
	primed, err := ml.NewNeighborIndex(flipped, valid, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		built, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		given, err := WhatIfRemovalsWithIndex(ft, variants, primed, 3, valid, workers)
		if err != nil {
			t.Fatal(err)
		}
		for path, got := range map[string][]WhatIfResult{"built": built, "primed": given} {
			for i := range oracle {
				if got[i].Surviving != oracle[i].Surviving {
					t.Fatalf("workers=%d %s variant %q: surviving %d, rebuild %d",
						workers, path, variants[i].Name, got[i].Surviving, oracle[i].Surviving)
				}
				if math.Float64bits(got[i].Metric) != math.Float64bits(oracle[i].Metric) {
					t.Fatalf("workers=%d %s variant %q: metric %x, rebuild %x",
						workers, path, variants[i].Name, math.Float64bits(got[i].Metric), math.Float64bits(oracle[i].Metric))
				}
			}
		}
	}
}

// A non-kNN model factory must keep the generic retrain path working.
func TestWhatIfDeltaNonKNNFallsBack(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewLogisticRegression() }
	variants := []RemovalVariant{
		{Name: "none"},
		{Name: "drop", Remove: []prov.TupleID{{Table: "train", Row: 0}, {Table: "train", Row: 3}}},
	}
	got, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := WhatIfRemovals(ft, variants, newModel, valid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Fatalf("variant %q: %+v, want %+v", variants[i].Name, got[i], oracle[i])
		}
	}
}

// Removing every surviving row must yield the NaN sentinel on the delta
// path too, not an error.
func TestWhatIfDeltaEmptyVariant(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	all := make([]prov.TupleID, 40)
	for i := range all {
		all[i] = prov.TupleID{Table: "train", Row: i}
	}
	results, err := WhatIfRemovalsConfig(ft, []RemovalVariant{{Name: "all", Remove: all}}, newModel, valid, WhatIfConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Surviving != 0 || !math.IsNaN(results[0].Metric) {
		t.Fatalf("empty variant = %+v, want 0 survivors and NaN metric", results[0])
	}
}

// WhatIfRemovalsWithIndex rejects a non-positive k and a validation split
// that does not match the index's queries instead of voting over them.
func TestWhatIfRemovalsWithIndexErrors(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	ix, err := ml.NewNeighborIndex(ft.Data, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	variants := []RemovalVariant{{Name: "none"}}
	if _, err := WhatIfRemovalsWithIndex(ft, variants, ix, 0, valid, 1); !errors.Is(err, nderr.ErrBadK) {
		t.Errorf("k=0: err = %v, want ErrBadK", err)
	}
	short := valid.Subset([]int{0, 1, 2})
	if _, err := WhatIfRemovalsWithIndex(ft, variants, ix, 3, short, 1); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Errorf("short valid: err = %v, want ErrShapeMismatch", err)
	}
}
