package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"nde/internal/prov"
)

// survivors is the per-row oracle for batchLineage: it evaluates every
// output row's polynomial under the variant's removals and returns, in
// row order, the rows that still hold.
func survivors(ft *Featurized, v RemovalVariant) []int {
	removed := make(map[prov.TupleID]bool, len(v.Remove))
	for _, id := range v.Remove {
		removed[id] = true
	}
	alive := func(id prov.TupleID) bool { return !removed[id] }
	keep := make([]int, 0, len(ft.Prov))
	for o, p := range ft.Prov {
		if p.EvalBool(alive) {
			keep = append(keep, o)
		}
	}
	return keep
}

// lineageRows bounds the source-tuple universe of lineageCase: rows
// 0..lineageRows-1 of tables "a" and "b". Removals may also name tuples
// of table "c", which no polynomial mentions.
const lineageRows = 6

func tuple(table string, b byte) prov.TupleID {
	return prov.TupleID{Table: table, Row: int(b) % lineageRows}
}

// lineageCase decodes data into provenance polynomials and a batch of
// removal variants. Each polynomial is one of the five shapes pipelines
// produce — identity a[i], join product a[i]·b[j], union sum a[i] +
// a[j]·b[k], zero and one — and each variant removes up to 7 tuples of
// tables a, b and c, duplicates allowed. Exhausted input reads as zeros,
// so every byte string is a valid case.
func lineageCase(data []byte) ([]prov.Polynomial, []RemovalVariant) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	polys := make([]prov.Polynomial, 1+int(next())%24)
	for o := range polys {
		switch next() % 5 {
		case 0:
			polys[o] = prov.Var(tuple("a", next()))
		case 1:
			polys[o] = prov.Mul(prov.Var(tuple("a", next())), prov.Var(tuple("b", next())))
		case 2:
			polys[o] = prov.Add(prov.Var(tuple("a", next())),
				prov.Mul(prov.Var(tuple("a", next())), prov.Var(tuple("b", next()))))
		case 3:
			polys[o] = prov.Zero()
		case 4:
			polys[o] = prov.One()
		}
	}
	variants := make([]RemovalVariant, int(next())%6)
	for v := range variants {
		remove := make([]prov.TupleID, int(next())%8)
		for j := range remove {
			remove[j] = tuple([]string{"a", "b", "c"}[next()%3], next())
		}
		variants[v] = RemovalVariant{Name: fmt.Sprintf("v%d", v), Remove: remove}
	}
	return polys, variants
}

// checkLineage compares every variant's survivor mask and count from one
// batchLineage with the per-row oracle.
func checkLineage(t *testing.T, polys []prov.Polynomial, variants []RemovalVariant) {
	t.Helper()
	ft := &Featurized{Prov: polys}
	l := newBatchLineage(polys, variants)
	for _, v := range variants {
		alive, n := l.survivors(v.Remove)
		want := make([]bool, len(polys))
		keep := survivors(ft, v)
		for _, o := range keep {
			want[o] = true
		}
		if n != len(keep) {
			t.Fatalf("variant %s removing %v: %d survivors, oracle %d (polys %v)", v.Name, v.Remove, n, len(keep), polys)
		}
		for o := range want {
			if alive[o] != want[o] {
				t.Fatalf("variant %s removing %v: row %d (%v) alive=%v, oracle %v", v.Name, v.Remove, o, polys[o], alive[o], want[o])
			}
		}
	}
}

// The batch lineage — the nothing-removed mask with only the rows a
// variant's tuples touch re-evaluated — agrees with evaluating every
// row's polynomial, over random mixes of identity, join-product,
// union-sum, zero and one polynomials. Every batch also carries a
// variant that removes nothing, one with duplicate removals, one that
// removes only tuples no row names (some of them sharing a named tuple's
// slot in the pass's row filter), and one that removes the whole
// universe.
func TestBatchLineageMatchesEvalBool(t *testing.T) {
	var everything []prov.TupleID
	for _, table := range []string{"a", "b", "c"} {
		for row := 0; row < lineageRows; row++ {
			everything = append(everything, prov.TupleID{Table: table, Row: row})
		}
	}
	r := rand.New(rand.NewSource(1701))
	data := make([]byte, 160)
	for trial := 0; trial < 500; trial++ {
		r.Read(data)
		polys, variants := lineageCase(data)
		a0, b1 := prov.TupleID{Table: "a", Row: 0}, prov.TupleID{Table: "b", Row: 1}
		variants = append(variants,
			RemovalVariant{Name: "none"},
			RemovalVariant{Name: "dup", Remove: []prov.TupleID{a0, b1, a0, a0}},
			RemovalVariant{Name: "unnamed", Remove: []prov.TupleID{
				{Table: "c", Row: 2}, {Table: "a", Row: lineageRows + 3},
				// rows sharing a[1]'s and b[5]'s slot in the pass's filter, and a negative row
				{Table: "a", Row: lineageFilterBits + 1}, {Table: "b", Row: 5 - lineageFilterBits}, {Table: "b", Row: -1},
			}},
			RemovalVariant{Name: "everything", Remove: everything},
		)
		checkLineage(t, polys, variants)
	}
}

// FuzzWhatIfSurvivors checks the batch lineage against the per-row oracle
// on arbitrary polynomial tables and removal batches (see lineageCase).
func FuzzWhatIfSurvivors(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 3, 2, 4, 5, 0, 2, 3, 0, 1, 1, 2})
	f.Add([]byte{23, 4, 3, 2, 1, 0, 0, 5, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		polys, variants := lineageCase(data)
		checkLineage(t, polys, variants)
	})
}
