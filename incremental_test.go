package nde_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nde"
	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
)

func sessionFixture(t *testing.T) (*nde.Dataset, *nde.Dataset) {
	t.Helper()
	s := nde.LoadRecommendationLetters(160, 17)
	dTrain, dValid, _, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	return dTrain, dValid
}

// A DebugSession's chained delta updates must stay Float64bits-identical to
// recomputing kNN-Shapley from scratch over the surviving subset, and its
// Accuracy must match a freshly rebuilt index.
func TestDebugSessionMatchesRecompute(t *testing.T) {
	dTrain, dValid := sessionFixture(t)
	const k = 5
	sess, err := nde.NewDebugSession(dTrain, dValid, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Len() != dTrain.Len() {
		t.Fatalf("session opened with %d rows, want %d", sess.Len(), dTrain.Len())
	}
	check := func(scores nde.Scores) {
		t.Helper()
		ids := sess.OriginalIDs()
		oracle, err := importance.KNNShapley(k, dTrain.Subset(ids), dValid)
		if err != nil {
			t.Fatal(err)
		}
		if len(scores) != len(oracle) {
			t.Fatalf("%d scores for %d surviving rows", len(scores), len(oracle))
		}
		for i := range oracle {
			if math.Float64bits(scores[i]) != math.Float64bits(float64(oracle[i])) {
				t.Fatalf("score[%d] = %x, recompute %x", i, math.Float64bits(scores[i]), math.Float64bits(oracle[i]))
			}
		}
		fresh, err := ml.NewNeighborIndex(dTrain.Subset(ids), dValid, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantAcc := ml.Accuracy(dValid.Y, fresh.PredictBatch(k))
		acc, err := sess.Accuracy()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(acc) != math.Float64bits(wantAcc) {
			t.Fatalf("Accuracy = %v, rebuild %v", acc, wantAcc)
		}
	}
	check(sess.Scores())
	for _, rm := range [][]int{{0, 7, 7, 33}, {1, 2, 3}, {60, 61, 62, 63, 64}} {
		scores, err := sess.RemoveRows(rm)
		if err != nil {
			t.Fatal(err)
		}
		check(scores)
	}
}

// Session steps derive from the index the session holds: after the
// opening lookup they never read the facade's index store, so they never
// evict another caller's index.
func TestDebugSessionStepsBypassSharedCache(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer obs.Reset()
	defer obs.Disable()
	dTrain, dValid := sessionFixture(t)
	sess, err := nde.NewDebugSession(dTrain, dValid, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"hits", "misses", "waits"}
	before := make([]int64, len(names))
	for i, name := range names {
		before[i] = obs.Default().Counter("importance_neighbor_index_" + name + "_total").Value()
	}
	for _, rm := range [][]int{{0, 3}, {10}} {
		if _, err := sess.RemoveRows(rm); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range names {
		if got := obs.Default().Counter("importance_neighbor_index_" + name + "_total").Value(); got != before[i] {
			t.Errorf("session steps moved importance_neighbor_index_%s_total %d -> %d", name, before[i], got)
		}
	}
}

func TestDebugSessionAtomicOnError(t *testing.T) {
	dTrain, dValid := sessionFixture(t)
	sess, err := nde.NewDebugSession(dTrain, dValid, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Scores()
	ids := sess.OriginalIDs()
	if _, err := sess.RemoveRows([]int{0, dTrain.Len()}); !errors.Is(err, nde.ErrDegenerateInput) {
		t.Fatalf("out-of-range removal err = %v, want ErrDegenerateInput", err)
	}
	if sess.Len() != dTrain.Len() {
		t.Fatalf("failed removal shrank session to %d rows", sess.Len())
	}
	after := sess.Scores()
	for i := range before {
		if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
			t.Fatalf("failed removal changed score[%d]", i)
		}
	}
	for i := range ids {
		if sess.OriginalIDs()[i] != ids[i] {
			t.Fatalf("failed removal changed OriginalIDs[%d]", i)
		}
	}
	// a removal that leaves fewer rows than k is rejected, session unchanged
	nearlyAll := make([]int, dTrain.Len()-2)
	for i := range nearlyAll {
		nearlyAll[i] = i
	}
	if _, err := sess.RemoveRows(nearlyAll); !errors.Is(err, nde.ErrBadK) {
		t.Fatalf("removal below k err = %v, want ErrBadK", err)
	}
	if sess.Len() != dTrain.Len() {
		t.Fatalf("rejected removal shrank session to %d rows", sess.Len())
	}
	if scores, err := sess.RemoveRows(nil); err != nil || len(scores) != dTrain.Len() {
		t.Fatalf("empty removal = (%d scores, %v), want full-length no-op", len(scores), err)
	}
}

// Race-stress: concurrent WhatIfParallel callers share one base index while
// a DebugSession derives delta indexes from the same facade store and a
// churn goroutine resets it. Run under -race; results must stay bit-identical to
// the serial baseline throughout.
func TestStressWhatIfUnderIndexMutation(t *testing.T) {
	s := nde.LoadRecommendationLetters(120, 23)
	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := hp.WithProvenance()
	if err != nil {
		t.Fatal(err)
	}
	validLike, err := hp.FeaturizeValidationLike(s.Valid, s.Data.Jobs, s.Data.Social, hp.Encoder)
	if err != nil {
		t.Fatal(err)
	}
	var variants []nde.RemovalVariant
	for v := 0; v < 5; v++ {
		rows := make([]nde.TupleID, 0, 3)
		for r := v * 4; r < v*4+3 && r < hp.TrainRows; r++ {
			rows = append(rows, nde.TupleID{Table: "train", Row: r})
		}
		variants = append(variants, nde.RemovalVariant{Name: fmt.Sprintf("drop-%d", v), Remove: rows})
	}
	baseline, err := nde.WhatIfParallel(ft, variants, validLike, 1)
	if err != nil {
		t.Fatal(err)
	}
	dTrain, dValid, _, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}

	goroutines, iters := 4, 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines+2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				opts := nde.WhatIfOptions{Workers: 1 + (g+it)%4, ForceRebuild: g%2 == 1}
				got, err := nde.WhatIfWithOptions(ft, variants, validLike, opts)
				if err != nil {
					errc <- err
					return
				}
				for i := range baseline {
					if got[i].Surviving != baseline[i].Surviving ||
						math.Float64bits(got[i].Metric) != math.Float64bits(baseline[i].Metric) {
						errc <- fmt.Errorf("goroutine %d variant %q: %+v, baseline %+v", g, variants[i].Name, got[i], baseline[i])
						return
					}
				}
			}
		}(g)
	}
	// session goroutine: derives delta indexes from the facade's store while
	// the what-if callers run
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			sess, err := nde.NewDebugSession(dTrain, dValid, 5, 2)
			if err != nil {
				errc <- err
				return
			}
			for _, rm := range [][]int{{it, it + 10}, {0, 1}} {
				if _, err := sess.RemoveRows(rm); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	// churn goroutine: the store reset path must never corrupt in-flight work
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters*2; it++ {
			nde.ResetNeighborIndexCache()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// The calls of FuzzDebugSession: RemoveRows of one row given twice, of a
// run of rows (the first given twice), of rows that include one outside
// the survivors, and of all but fewer than k rows; then the session's
// four reads.
const (
	sessRemoveRow = iota
	sessRemoveRun
	sessRemoveOutside
	sessRemoveBelowK
	sessAccuracy
	sessScores
	sessOriginalIDs
	sessLen
	sessOps
)

// FuzzDebugSession drives a DebugSession through a sequence of calls and,
// after every call, checks it against recomputing from scratch over the
// rows OriginalIDs names: Scores is Float64bits-equal to KNNShapley over
// train.Subset(OriginalIDs()), Accuracy to a fresh index's PredictBatch
// accuracy, and Len counts those rows. A removal naming a row outside the
// survivors, or leaving fewer than k rows, must fail and leave the session
// as it was. The input's first five bytes choose k, the worker count
// (1–3), the training and validation sizes and the seed of a tie-heavy
// data set; each later pair of bytes is one call (op, arg). The first
// seed removes 11 of 40 rows (dead·4 > 40: the index compacts), then 8 of
// the 29 left (8·4 > 29: it compacts again), with reads and rejected
// removals in between.
func FuzzDebugSession(f *testing.F) {
	f.Add([]byte{1, 1, 38, 6, 3,
		sessAccuracy, 0, sessRemoveRun, 10, sessScores, 0, sessRemoveOutside, 4,
		sessRemoveRun, 7, sessAccuracy, 0, sessRemoveBelowK, 1, sessRemoveRow, 5, sessLen, 0})
	f.Add([]byte{4, 2, 20, 7, 9,
		sessRemoveRow, 0, sessRemoveRow, 0, sessOriginalIDs, 0, sessRemoveRun, 3,
		sessAccuracy, 0, sessRemoveBelowK, 2, sessRemoveRun, 11})
	f.Add([]byte{2, 0, 9, 3, 5, sessRemoveRun, 11, sessRemoveBelowK, 0, sessRemoveRow, 200})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		k := 1 + int(in[0])%6
		workers := 1 + int(in[1])%3
		r := rand.New(rand.NewSource(int64(in[4])))
		train := sessionTieData(r, max(k, 2)+int(in[2])%60, 3)
		valid := sessionTieData(r, 1+int(in[3])%8, 4)
		sess, err := nde.NewDebugSession(train, valid, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkSession(t, sess, train, valid, k)
		for b := 5; b+1 < len(in); b += 2 {
			op, arg := int(in[b])%sessOps, int(in[b+1])
			n := sess.Len()
			var rows []int
			switch op {
			case sessRemoveRow:
				rows = []int{arg % n, arg % n}
			case sessRemoveRun:
				for j := 0; j <= arg%12; j++ {
					rows = append(rows, (arg+j)%n)
				}
				rows = append(rows, rows[0])
			case sessRemoveOutside:
				rows = []int{arg % n, n + arg%3}
				if arg%2 == 1 {
					rows[1] = -1
				}
			case sessRemoveBelowK:
				for i := 0; i < n-k+1+arg%k; i++ {
					rows = append(rows, i)
				}
			case sessAccuracy:
				if _, err := sess.Accuracy(); err != nil {
					t.Fatal(err)
				}
			case sessScores:
				sess.Scores()
			case sessOriginalIDs:
				sess.OriginalIDs()
			case sessLen:
				sess.Len()
			}
			if rows != nil {
				removeAndCheck(t, sess, rows, k)
			}
			checkSession(t, sess, train, valid, k)
		}
	})
}

// removeAndCheck calls RemoveRows and checks its outcome: a row outside
// the survivors fails with ErrDegenerateInput, a removal of every row
// with ErrEmptyInput and one leaving fewer than k rows with ErrBadK, each
// leaving the session as it was; any other removal returns the scores
// the session then holds.
func removeAndCheck(t *testing.T, sess *nde.DebugSession, rows []int, k int) {
	t.Helper()
	n := sess.Len()
	before, ids := sess.Scores(), sess.OriginalIDs()
	distinct := map[int]bool{}
	var want error
	for _, i := range rows {
		if i < 0 || i >= n {
			want = nde.ErrDegenerateInput
		}
		distinct[i] = true
	}
	switch {
	case want != nil:
	case len(distinct) == n:
		want = nde.ErrEmptyInput
	case n-len(distinct) < k:
		want = nde.ErrBadK
	}
	scores, err := sess.RemoveRows(rows)
	if want == nil {
		if err != nil {
			t.Fatalf("RemoveRows(%v) on %d rows: %v", rows, n, err)
		}
		if sess.Len() != n-len(distinct) || !slices.EqualFunc(scores, sess.Scores(), sameFloat) {
			t.Fatalf("RemoveRows(%v) on %d rows: %d survivors, or returned scores other than the session's", rows, n, sess.Len())
		}
		return
	}
	if !errors.Is(err, want) {
		t.Fatalf("RemoveRows(%v) on %d rows: err = %v, want %v", rows, n, err, want)
	}
	if !slices.EqualFunc(sess.Scores(), before, sameFloat) || !slices.Equal(sess.OriginalIDs(), ids) {
		t.Fatalf("rejected RemoveRows(%v) changed the session", rows)
	}
}

// checkSession compares the session with recomputing from scratch over
// the rows OriginalIDs names.
func checkSession(t *testing.T, sess *nde.DebugSession, train, valid *nde.Dataset, k int) {
	t.Helper()
	ids := sess.OriginalIDs()
	if sess.Len() != len(ids) {
		t.Fatalf("Len() = %d with %d original ids", sess.Len(), len(ids))
	}
	survivors := train.Subset(ids)
	want, err := importance.KNNShapley(k, survivors, valid)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Scores(); !slices.EqualFunc(got, want, sameFloat) {
		t.Fatalf("Scores() over %d rows differ from KNNShapley over them", len(ids))
	}
	fresh, err := ml.NewNeighborIndex(survivors, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := sess.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if wantAcc := ml.Accuracy(valid.Y, fresh.PredictBatch(k)); math.Float64bits(acc) != math.Float64bits(wantAcc) {
		t.Fatalf("Accuracy() = %v, fresh index %v", acc, wantAcc)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sessionTieData draws n rows of dim 2 with labels in [0, classes), the
// first two labelled 0 and 1: about half repeat an earlier row and a
// quarter sit on a 3×3 integer grid, so distances tie often.
func sessionTieData(r *rand.Rand, n, classes int) *nde.Dataset {
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		switch c := r.Intn(4); {
		case i > 0 && c < 2:
			copy(x.Row(i), x.Row(r.Intn(i)))
		case c == 2:
			x.Set(i, 0, float64(r.Intn(3)))
			x.Set(i, 1, float64(r.Intn(3)))
		default:
			x.Set(i, 0, r.NormFloat64())
			x.Set(i, 1, r.NormFloat64())
		}
		y[i] = r.Intn(classes)
		if i < 2 {
			y[i] = i
		}
	}
	d, _ := ml.NewDataset(x, y)
	return d
}
