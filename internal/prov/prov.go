// Package prov implements row-level why-provenance (Green, Karvounarakis,
// Tannen; PODS 2007) for ML pipelines.
//
// Every source tuple is a variable. The select-project-join pipelines of
// the tutorial derive each output row exactly once, so its provenance is
// one product of variables: the set of source tuples that jointly produced
// it. A row survives the removal of some source tuples exactly when its
// product names none of them, which answers the interventional question
// at the heart of pipeline-aware data debugging: if we removed these
// source tuples, would this training row still exist?
package prov

import (
	"fmt"
	"strings"
)

// TupleID identifies one row of one named source table.
type TupleID struct {
	Table string
	Row   int
}

// String renders the tuple id as "table[row]".
func (t TupleID) String() string { return fmt.Sprintf("%s[%d]", t.Table, t.Row) }

// Less orders tuple ids lexicographically by table then row.
func (t TupleID) Less(o TupleID) bool {
	if t.Table != o.Table {
		return t.Table < o.Table
	}
	return t.Row < o.Row
}

// Polynomial is the provenance of one output row: the product of the
// source tuples that must all be present for the row to exist, sorted by
// TupleID.Less and free of duplicates (multiplication is idempotent in
// the positive-boolean semiring of why-provenance). Treat it as
// read-only: operators share it between rows.
type Polynomial []TupleID

// Var returns the product consisting of the single tuple t.
func Var(t TupleID) Polynomial { return Polynomial{t} }

// Mul returns a * b: the sorted merge of the two products, naming a tuple
// both name once.
func Mul(a, b Polynomial) Polynomial {
	out := make(Polynomial, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Less(b[0]):
			out, a = append(out, a[0]), a[1:]
		case b[0].Less(a[0]):
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// String renders the product as "a[0]·b[3]".
func (p Polynomial) String() string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteString("·")
		}
		b.WriteString(v.String())
	}
	return b.String()
}
