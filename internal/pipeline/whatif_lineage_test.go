package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nde/internal/prov"
)

// survivors is the per-row oracle for batchLineage: it keeps, in row
// order, every output row whose product names none of the variant's
// removed tuples.
func survivors(ft *Featurized, v RemovalVariant) []int {
	keep := make([]int, 0, len(ft.Prov))
	for o, p := range ft.Prov {
		if !slices.ContainsFunc(p, func(id prov.TupleID) bool { return slices.Contains(v.Remove, id) }) {
			keep = append(keep, o)
		}
	}
	return keep
}

// lineageRows bounds the source-tuple universe of lineageCase: rows
// 0..lineageRows-1 of tables "a" and "b". Removals may also name tuples
// of table "c", which no product names.
const lineageRows = 6

func tuple(table string, b byte) prov.TupleID {
	return prov.TupleID{Table: table, Row: int(b) % lineageRows}
}

// lineageCase decodes data into provenance products and a batch of
// removal variants. Each product is one of four shapes — identity a[i],
// two-way join a[i]·b[j], three-way a[i]·b[j]·a[k], and the three-way
// a[i]·b[j]·a[i] that repeats a tuple — and each variant removes up to 7
// tuples of tables a, b and c, duplicates allowed. Exhausted input reads
// as zeros, so every byte string is a valid case.
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
		a := prov.Var(tuple("a", next()))
		switch next() % 4 {
		case 0:
			polys[o] = a
		case 1:
			polys[o] = prov.Mul(a, prov.Var(tuple("b", next())))
		case 2:
			polys[o] = prov.Mul(prov.Mul(a, prov.Var(tuple("b", next()))), prov.Var(tuple("a", next())))
		case 3:
			polys[o] = prov.Mul(prov.Mul(a, prov.Var(tuple("b", next()))), a)
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

// The batch lineage — an all-alive mask with the rows a variant's tuples
// name cleared — agrees with checking every row's product against the
// variant's removals, over random mixes of identity, two-way and
// three-way products, some repeating a tuple. Every batch also carries a
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
// on arbitrary product tables and removal batches (see lineageCase).
func FuzzWhatIfSurvivors(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 3, 2, 4, 5, 0, 2, 3, 0, 1, 1, 2})
	f.Add([]byte{23, 4, 3, 2, 1, 0, 0, 5, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		polys, variants := lineageCase(data)
		checkLineage(t, polys, variants)
	})
}
