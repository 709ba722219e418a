package ml_test

import (
	"math"
	"math/rand"
	"testing"

	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
)

// The served paths never store a distance matrix: scoring a fresh index
// builds its order table from kernel blocks in scratch, and the calls a
// DebugSession makes — KNNShapleyDerive on the index it holds, chained —
// derive children that walk the root's order, through one compaction.
// Scoring a derived child, and predicting with it, builds no q×n order
// table of its own: the kernel walks the root's. Every step's scores
// stay Float64bits-identical to scoring the survivors from scratch.
func TestOrderFirstChainStoresNoDistanceMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	mk := func(n int) *ml.Dataset {
		x := linalg.NewMatrix(n, 4)
		y := make([]int, n)
		for i := range y {
			for j := range x.Row(i) {
				x.Row(i)[j] = r.NormFloat64()
			}
			y[i] = r.Intn(3)
		}
		d, err := ml.NewDataset(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	train, valid := mk(200), mk(23)
	const k = 5
	root, err := ml.NewNeighborIndex(train, valid, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := importance.KNNShapleyWithIndex(k, root, train.Y, valid.Y, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := root.PredictBatchLabels(k, train.Y); err != nil {
		t.Fatal(err)
	}
	indexes := []*ml.NeighborIndex{root}
	cur, curY := root, train.Y
	compactions := 0
	for step := 0; step < 8; step++ {
		rows := r.Perm(cur.Train.Len())[:10]
		scores, keep, nextY, child, err := importance.KNNShapleyDerive(k, cur, curY, valid.Y, rows, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := child.PredictBatchLabels(k, child.Train.Y); err != nil {
			t.Fatal(err)
		}
		switch {
		case !ml.IsDerived(child):
			compactions++
		case ml.StoresOrders(child):
			t.Fatalf("step %d: scoring the derived index built its order table", step)
		}
		want, err := importance.KNNShapley(k, child.TrainSet(), valid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %d: score[%d] = %x, rebuild %x", step, i, math.Float64bits(scores[i]), math.Float64bits(want[i]))
			}
		}
		for o, i := range keep {
			if nextY[o] != curY[i] {
				t.Fatalf("step %d: survivor %d's label %d, caller's %d", step, o, nextY[o], curY[i])
			}
		}
		indexes = append(indexes, child)
		cur, curY = child, nextY
	}
	if compactions != 1 {
		t.Fatalf("chain compacted %d times, want 1", compactions)
	}
	for i, ix := range indexes {
		if ml.StoresD2(ix) {
			t.Fatalf("index %d of the chain stores a distance matrix", i)
		}
	}
}
