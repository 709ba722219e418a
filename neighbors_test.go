package nde

import (
	"testing"

	"nde/internal/obs"
)

func TestNearestLettersModes(t *testing.T) {
	s := LoadRecommendationLetters(300, 7)
	exact, err := NearestLetters(s.Train, s.Valid, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != s.Valid.NumRows() {
		t.Fatalf("%d answers for %d queries", len(exact), s.Valid.NumRows())
	}
	for q, nn := range exact {
		if len(nn) != 5 {
			t.Fatalf("query %d: %d neighbors, want 5", q, len(nn))
		}
	}
	// degenerate inputs error through the facade checks
	if _, err := NearestLetters(nil, s.Valid, 5); err == nil {
		t.Error("nil train frame did not error")
	}
	if _, err := NearestLetters(s.Train, s.Valid, 10_000); err == nil {
		t.Error("oversized k did not error")
	}
}

// ResetNeighborIndexCache empties the facade's store: the next call over
// a geometry the store held builds its index again.
func TestResetNeighborIndexCacheEmptiesFacadeStore(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer obs.Reset()
	defer obs.Disable()
	s := LoadRecommendationLetters(60, 3)
	misses := func() int64 { return obs.Default().Counter("importance_neighbor_index_misses_total").Value() }
	for round, want := range []int64{1, 1, 2} {
		if round == 2 {
			ResetNeighborIndexCache()
		}
		if _, err := KNNShapleyValues(s.Train, s.Valid, 3); err != nil {
			t.Fatal(err)
		}
		if got := misses(); got != want {
			t.Fatalf("call %d: neighbor index misses %d, want %d", round, got, want)
		}
	}
}
