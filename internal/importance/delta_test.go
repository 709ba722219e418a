package importance

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nde/internal/ml"
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
	// a derived index's Train holds labels only: the entry points that
	// take datasets reject it rather than read its missing features
	_, _, child, err := KNNShapleyDelta(3, train, valid, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := KNNShapley(3, child.Train, valid); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("KNNShapley over a derived Train err = %v, want ErrEmptyInput", err)
	}
	if _, err := ml.NewNeighborIndex(child.Train, valid, 1); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("NewNeighborIndex over a derived Train err = %v, want ErrEmptyInput", err)
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

// The removal ops of FuzzRemoveRowsChain: one batch removes the row its
// argument names, each query's farthest or nearest rows (1 + arg%4 of
// them), or every row but the one its argument names.
const (
	chainRow = iota
	chainFarthest
	chainNearest
	chainAllButOne
	chainOps
)

// FuzzRemoveRowsChain derives a chain of indexes through KNNShapleyDerive,
// each batch removing rows from the child the previous batch returned, and
// checks every step against a rebuild over the surviving rows: the scores
// are Float64bits-equal to KNNShapley's, the child's kNN votes equal a
// fresh index's, and its training set (TrainSet: features, labels and
// groups) is the survivors' rows. The input's first six bytes choose k, the worker count,
// the training and validation sizes, the class count and the seed of a
// tie-heavy data set; each later pair of bytes is one batch (op, arg).
// The seed corpus removes every query's farthest rows (tombstones beyond
// the first live entry of the root's order), its nearest rows, and all
// rows but one; each chain crosses the compaction bound.
func FuzzRemoveRowsChain(f *testing.F) {
	f.Add([]byte{4, 1, 40, 5, 2, 7, chainFarthest, 0, chainFarthest, 0, chainFarthest, 2, chainRow, 9})
	f.Add([]byte{3, 2, 40, 5, 3, 8, chainNearest, 0, chainNearest, 1, chainNearest, 1, chainRow, 3})
	f.Add([]byte{2, 3, 30, 4, 2, 9, chainRow, 5, chainAllButOne, 11})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 6 {
			return
		}
		k := 1 + int(in[0])%8
		workers := 1 + int(in[1])%3
		r := rand.New(rand.NewSource(int64(in[5])))
		train := tieDataset(r, 2+int(in[2])%62, 1+int(in[4])%3)
		train.Groups = make([]string, train.Len())
		for i := range train.Groups {
			train.Groups[i] = string(rune('a' + r.Intn(3)))
		}
		valid := tieDataset(r, 1+int(in[3])%8, 2+int(in[4])%3)
		cur, err := ml.NewNeighborIndex(train, valid, workers)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]int, train.Len()) // cur's rows as rows of train
		for i := range orig {
			orig[i] = i
		}
		for b := 6; b+1 < len(in) && len(orig) > 1; b += 2 {
			rows := chainRemoval(t, cur, int(in[b])%chainOps, int(in[b+1]))
			scores, keep, child, err := KNNShapleyDerive(k, cur, cur.Train.Y, valid.Y, rows, workers)
			if err != nil {
				t.Fatal(err)
			}
			for o, i := range keep {
				orig[o] = orig[i]
			}
			orig = orig[:len(keep)]
			survivors := train.Subset(orig)
			want, err := KNNShapley(k, survivors, valid)
			if err != nil {
				t.Fatal(err)
			}
			assertScoresBitIdentical(t, scores, want, "chain step")
			got := child.TrainSet()
			if got.X.Rows != survivors.X.Rows || got.X.Cols != survivors.X.Cols || !slices.Equal(got.Y, survivors.Y) ||
				!slices.Equal(got.Groups, survivors.Groups) || !slices.Equal(child.Train.Y, survivors.Y) {
				t.Fatal("the child's training set does not have the survivors' shape, labels and groups")
			}
			for i, v := range survivors.X.Data {
				if math.Float64bits(got.X.Data[i]) != math.Float64bits(v) {
					t.Fatalf("the child's feature %d = %v, survivors' %v", i, got.X.Data[i], v)
				}
			}
			fresh, err := ml.NewNeighborIndex(survivors, valid, 1)
			if err != nil {
				t.Fatal(err)
			}
			childVotes, err := child.PredictBatchLabels(k, child.Train.Y)
			if err != nil {
				t.Fatal(err)
			}
			votes, err := fresh.PredictBatchLabels(k, survivors.Y)
			if err != nil {
				t.Fatal(err)
			}
			for q := range votes {
				if childVotes[q] != votes[q] {
					t.Fatalf("query %d: child votes %d, fresh index %d", q, childVotes[q], votes[q])
				}
			}
			cur = child
		}
	})
}

// chainRemoval returns the rows of ix's training set that one
// FuzzRemoveRowsChain batch removes, leaving at least one. It ranks them
// on a fresh index over the same rows, so ix builds no order table.
func chainRemoval(t *testing.T, ix *ml.NeighborIndex, op, arg int) []int {
	t.Helper()
	n := ix.Train.Len()
	switch op {
	case chainRow:
		return []int{arg % n}
	case chainAllButOne:
		rows := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != arg%n {
				rows = append(rows, i)
			}
		}
		return rows
	}
	fresh, err := ml.NewNeighborIndex(ix.TrainSet(), ix.Queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := min(1+arg%4, n)
	gone := make([]bool, n)
	var rows []int
	for q := 0; q < ix.Queries.Len(); q++ {
		order := fresh.Order(q)
		if op == chainFarthest {
			order = order[n-m:]
		} else {
			order = order[:m]
		}
		for _, i := range order {
			if !gone[i] && len(rows) < n-1 {
				gone[i] = true
				rows = append(rows, int(i))
			}
		}
	}
	return rows
}
