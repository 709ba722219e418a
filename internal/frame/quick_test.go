package frame

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomFrame builds a deterministic pseudo-random frame used by the
// property tests below.
func randomFrame(r *rand.Rand, n int) *Frame {
	ids := make([]int64, n)
	vals := make([]float64, n)
	cats := make([]string, n)
	valid := make([]bool, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(r.Intn(10))
		vals[i] = r.NormFloat64()
		cats[i] = string(rune('a' + r.Intn(3)))
		valid[i] = r.Float64() > 0.2
	}
	return MustNew(
		NewIntSeries("id", ids, nil),
		NewFloatSeries("v", vals, valid),
		NewStringSeries("c", cats, nil),
	)
}

// Property: filtering preserves exactly the rows whose indices are returned,
// in order, for arbitrary predicates over arbitrary frames.
func TestQuickFilterLineage(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomFrame(r, int(size%50)+1)
		thresh := r.Float64()*2 - 1
		got, idx := f.Filter(func(row Row) bool {
			return !row.IsNull("v") && row.Value("v").Float() > thresh
		})
		if got.NumRows() != len(idx) {
			return false
		}
		for o, i := range idx {
			if got.MustColumn("id").Int(o) != f.MustColumn("id").Int(i) {
				return false
			}
			if f.MustColumn("v").IsNull(i) || f.MustColumn("v").Float(i) <= thresh {
				return false
			}
		}
		// complement check: every non-kept row fails the predicate
		kept := make(map[int]bool)
		for _, i := range idx {
			kept[i] = true
		}
		for i := 0; i < f.NumRows(); i++ {
			if !kept[i] && !f.MustColumn("v").IsNull(i) && f.MustColumn("v").Float(i) > thresh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: an inner join emits exactly the cross product of matching key
// groups — verified against a nested-loop reference implementation.
func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	prop := func(seed int64, ln, rn uint8) bool {
		r := rand.New(rand.NewSource(seed))
		left := randomFrame(r, int(ln%20)+1)
		right := randomFrame(r, int(rn%20)+1)
		rightKeys, err := right.Select("id") // no column collides with left's
		if err != nil {
			return false
		}
		res, err := JoinOn(left, rightKeys, "id", InnerJoin)
		if err != nil {
			return false
		}
		var wantPairs [][2]int
		for l := 0; l < left.NumRows(); l++ {
			for rr := 0; rr < right.NumRows(); rr++ {
				if left.MustColumn("id").Int(l) == right.MustColumn("id").Int(rr) {
					wantPairs = append(wantPairs, [2]int{l, rr})
				}
			}
		}
		if len(wantPairs) != res.Frame.NumRows() {
			return false
		}
		for o := range wantPairs {
			if res.LeftIdx[o] != wantPairs[o][0] || res.RightIdx[o] != wantPairs[o][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: CSV round-trips preserve numeric frames exactly (modulo the
// int/float inference boundary, which we avoid by using non-integral floats).
func TestQuickCSVRoundTrip(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size%30) + 1
		vals := make([]float64, n)
		valid := make([]bool, n)
		for i := range vals {
			vals[i] = r.NormFloat64() + 0.1234567 // avoid integral values
			valid[i] = r.Float64() > 0.3
		}
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		f := MustNew(NewIntSeries("id", ids, nil), NewFloatSeries("v", vals, valid))
		var sb strings.Builder
		if err := f.WriteCSV(&sb); err != nil {
			return false
		}
		back, err := ReadCSVString(sb.String())
		if err != nil {
			return false
		}
		if back.NumRows() != n {
			return false
		}
		for i := 0; i < n; i++ {
			a, b := f.MustColumn("v").Value(i), back.MustColumn("v").Value(i)
			if a.IsNull() != b.IsNull() {
				return false
			}
			if !a.IsNull() && a.Float() != b.Float() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
