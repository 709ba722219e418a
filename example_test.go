package nde_test

import (
	"fmt"

	"nde"
)

// The Figure-2 workflow in six lines: load, corrupt, rank, clean, compare.
func Example() {
	scenario := nde.LoadRecommendationLetters(200, 42)
	dirty, corrupted, _ := nde.InjectLabelErrors(scenario.Train, 0.1, 7)
	scores, _ := nde.KNNShapleyValues(dirty, scenario.Valid, 5)
	hits := 0
	for _, i := range scores.BottomK(len(corrupted)) {
		if corrupted[i] {
			hits++
		}
	}
	fmt.Printf("injected %d label errors; bottom-%d ranking caught %d\n",
		len(corrupted), len(corrupted), hits)
	// Output:
	// injected 12 label errors; bottom-12 ranking caught 10
}

// Building and inspecting the Figure-3 pipeline.
func ExampleBuildHiringPipeline() {
	scenario := nde.LoadRecommendationLetters(100, 1)
	pipe, _ := nde.BuildHiringPipeline(scenario.Train, scenario.Data.Jobs, scenario.Data.Social)
	ft, _ := pipe.WithProvenance()
	fmt.Printf("pipeline produced %d training rows with provenance\n", ft.Data.Len())
	// Output:
	// pipeline produced 7 training rows with provenance
}

// Symbolically encoding missing values and measuring worst-case loss.
func ExampleEncodeSymbolic() {
	scenario := nde.LoadRecommendationLetters(150, 3)
	train, _, _, _ := nde.FeaturizeLetterSplits(scenario.Train, scenario.Valid, scenario.Test)
	sym, missing, _ := nde.EncodeSymbolic(train, train.Dim()-1, 0.2, nde.MNAR, 5)
	fmt.Printf("%d of %d rating cells are now intervals\n", len(missing), sym.Len())
	// Output:
	// 18 of 90 rating cells are now intervals
}
