package nde

import "testing"

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

func TestFacadeNeighborSearchSettings(t *testing.T) {
	prev, err := SetNeighborIndexCacheCapacity(2)
	if err != nil {
		t.Fatal(err)
	}
	defer SetNeighborIndexCacheCapacity(prev)
	if got := NeighborIndexCacheCapacity(); got != 2 {
		t.Fatalf("capacity = %d, want 2", got)
	}
}
