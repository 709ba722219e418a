package frame_test

import (
	"fmt"

	"nde/internal/frame"
)

// Joining, filtering and rendering a small table.
func ExampleJoin() {
	people := frame.MustNew(
		frame.NewStringSeries("name", []string{"ana", "bob"}, nil),
		frame.NewIntSeries("job_id", []int64{10, 20}, nil),
	)
	jobs := frame.MustNew(
		frame.NewIntSeries("job_id", []int64{10, 20}, nil),
		frame.NewStringSeries("sector", []string{"healthcare", "finance"}, nil),
	)
	res, _ := frame.JoinOn(people, jobs, "job_id", frame.InnerJoin)
	kept, _ := res.Frame.Filter(func(r frame.Row) bool { return r.Str("sector") == "healthcare" })
	fmt.Println(kept.Render(0))
	// Output:
	// name  job_id  sector
	// ----  ------  ----------
	// ana   10      healthcare
	// [1 rows x 3 columns]
}
