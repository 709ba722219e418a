package importance

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nde/internal/nderr"
)

func assertScoresBitIdentical(t *testing.T, got, want Scores, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score[%d] = %x, rebuild %x", ctx, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// KNNShapleyDelta must be Float64bits-identical to the full-rebuild oracle
// KNNShapley(k, train.Subset(keep), valid), for every worker count and
// random removal sets.
func TestKNNShapleyDeltaMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	train := blobs(70, 1.5, 931)
	valid := blobs(20, 1.5, 932)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for trial := 0; trial < 4; trial++ {
			rm := make([]int, 1+r.Intn(12))
			for i := range rm {
				rm[i] = r.Intn(train.Len())
			}
			scores, keep, ix, err := KNNShapleyDelta(5, train, valid, rm, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(scores) != len(keep) || ix.Train.Len() != len(keep) {
				t.Fatalf("scores/keep/index sizes disagree: %d/%d/%d", len(scores), len(keep), ix.Train.Len())
			}
			oracle, err := KNNShapley(5, train.Subset(keep), valid)
			if err != nil {
				t.Fatal(err)
			}
			assertScoresBitIdentical(t, scores, oracle, "delta vs rebuild")
			// worker invariance: serial delta == this delta
			serial, _, _, err := KNNShapleyDelta(5, train, valid, rm, 1)
			if err != nil {
				t.Fatal(err)
			}
			assertScoresBitIdentical(t, scores, serial, "workers vs serial")
		}
	}
}

func TestKNNShapleyDeltaNilRemovalEqualsFull(t *testing.T) {
	train := blobs(40, 1.5, 933)
	valid := blobs(15, 1.5, 934)
	scores, keep, ix, err := KNNShapleyDelta(3, train, valid, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != train.Len() || ix.Train != train {
		t.Fatalf("nil removal: keep=%d rows, want the full base index over train", len(keep))
	}
	full, err := KNNShapley(3, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresBitIdentical(t, scores, full, "nil removal")
}

func TestKNNShapleyDeltaErrors(t *testing.T) {
	train := blobs(10, 1.5, 935)
	valid := blobs(5, 1.5, 936)
	if _, _, _, err := KNNShapleyDelta(3, train, valid, []int{10}, 1); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("out-of-range err = %v, want ErrDegenerateInput", err)
	}
	if _, _, _, err := KNNShapleyDelta(3, train, valid, []int{-1}, 1); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("negative err = %v, want ErrDegenerateInput", err)
	}
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	if _, _, _, err := KNNShapleyDelta(3, train, valid, all, 1); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("remove-all err = %v, want ErrEmptyInput", err)
	}
	if _, _, _, err := KNNShapleyDelta(0, train, valid, nil, 1); err == nil {
		t.Fatal("k=0 must error")
	}
}

// Chained deltas: repeatedly removing rows via the session pattern stays
// identical to the oracle at every step.
func TestKNNShapleyDeltaChained(t *testing.T) {
	train := blobs(60, 1.5, 939)
	valid := blobs(18, 1.5, 940)
	cur := train
	r := rand.New(rand.NewSource(32))
	for step := 0; step < 4; step++ {
		rm := []int{r.Intn(cur.Len()), r.Intn(cur.Len())}
		scores, keep, _, err := KNNShapleyDelta(5, cur, valid, rm, 3)
		if err != nil {
			t.Fatal(err)
		}
		cur = cur.Subset(keep)
		oracle, err := KNNShapley(5, cur, valid)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresBitIdentical(t, scores, oracle, "chained step")
	}
}
