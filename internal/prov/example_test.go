package prov_test

import (
	"fmt"

	"nde/internal/prov"
)

// A join output depends on both inputs; a union offers two derivations.
func ExamplePolynomial() {
	train0 := prov.TupleID{Table: "train", Row: 0}
	jobs2 := prov.TupleID{Table: "jobs", Row: 2}
	backup := prov.TupleID{Table: "backup", Row: 5}

	joined := prov.Mul(prov.Var(train0), prov.Var(jobs2))
	either := prov.Add(joined, prov.Var(backup))
	fmt.Println(either)

	// does the row survive if the jobs tuple is deleted?
	alive := either.EvalBool(func(id prov.TupleID) bool { return id != jobs2 })
	fmt.Println("survives without jobs[2]:", alive)
	// Output:
	// backup[5] + jobs[2]·train[0]
	// survives without jobs[2]: true
}
