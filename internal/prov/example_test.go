package prov_test

import (
	"fmt"
	"slices"

	"nde/internal/prov"
)

// A join output depends on both of its inputs: its provenance is their
// product, and it survives a removal only if the removal names neither.
func ExamplePolynomial() {
	train0 := prov.TupleID{Table: "train", Row: 0}
	jobs2 := prov.TupleID{Table: "jobs", Row: 2}

	joined := prov.Mul(prov.Var(train0), prov.Var(jobs2))
	fmt.Println(joined)

	// does the row survive if the jobs tuple is deleted?
	fmt.Println("survives without jobs[2]:", !slices.Contains(joined, jobs2))
	// Output:
	// jobs[2]·train[0]
	// survives without jobs[2]: false
}
