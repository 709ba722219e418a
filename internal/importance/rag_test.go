package importance

import (
	"fmt"
	"testing"
)

// ragFixture builds a corpus of "support" documents for two verdicts with a
// handful of polluted (mislabeled) entries, plus a benchmark of queries.
func ragFixture() (docs []string, labels []int, queries []string, answers []int, polluted map[int]bool) {
	positives := []string{
		"the treatment improved recovery outcomes substantially",
		"patients responded well to the new therapy",
		"clinical trials showed strong positive results for the treatment",
		"the therapy reduced symptoms in most patients",
		"recovery rates increased after the treatment was introduced",
		"the medication proved effective and safe in trials",
	}
	negatives := []string{
		"the treatment showed no measurable benefit over placebo",
		"patients reported adverse effects from the therapy",
		"the trial failed to demonstrate any improvement",
		"symptoms worsened for many patients on the medication",
		"the therapy was discontinued due to safety concerns",
		"no statistically significant effect was observed",
	}
	polluted = make(map[int]bool)
	for _, d := range positives {
		docs = append(docs, d)
		labels = append(labels, 1)
	}
	for _, d := range negatives {
		docs = append(docs, d)
		labels = append(labels, 0)
	}
	// polluted entries: negative-evidence text labeled positive
	pollutedDocs := []string{
		"the trial failed and safety concerns were raised about the treatment",
		"no benefit was observed and adverse effects worsened symptoms",
	}
	for _, d := range pollutedDocs {
		polluted[len(docs)] = true
		docs = append(docs, d)
		labels = append(labels, 1)
	}
	queries = []string{
		"did the treatment improve outcomes",
		"was the therapy effective for patients",
		"did the trial fail to show benefit",
		"were there adverse effects and safety concerns",
	}
	answers = []int{1, 1, 0, 0}
	return docs, labels, queries, answers, polluted
}

func TestRAGCorpusAnswer(t *testing.T) {
	docs, labels, queries, answers, _ := ragFixture()
	c, err := NewRAGCorpus(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Answer(queries[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != answers[0] {
		t.Errorf("answer = %d, want %d", got, answers[0])
	}
}

func TestRAGDocumentImportanceFindsPollution(t *testing.T) {
	docs, labels, queries, answers, polluted := ragFixture()
	c, err := NewRAGCorpus(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := c.DocumentImportance(queries, answers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(docs) {
		t.Fatalf("scores = %d", len(scores))
	}
	bottom := scores.BottomK(len(polluted))
	hits := 0
	for _, i := range bottom {
		if polluted[i] {
			hits++
		}
	}
	if hits < 1 {
		t.Errorf("bottom-%d %v missed all polluted docs %v (scores %v)", len(polluted), bottom, polluted, scores)
	}
}

func TestRAGPruneImprovesBenchmark(t *testing.T) {
	docs, labels, queries, answers, _ := ragFixture()
	c, err := NewRAGCorpus(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.BenchmarkAccuracy(queries, answers, 3)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := c.DocumentImportance(queries, answers, 3)
	if err != nil {
		t.Fatal(err)
	}
	pruned, dropped, err := c.PruneNegative(scores)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) == 0 || len(pruned.Docs)+len(dropped) != len(docs) {
		t.Errorf("pruned %d docs, dropped %v of %d", len(pruned.Docs), dropped, len(docs))
	}
	for _, i := range dropped {
		if scores[i] >= 0 {
			t.Errorf("dropped doc %d with score %v >= 0", i, scores[i])
		}
	}
	after, err := pruned.BenchmarkAccuracy(queries, answers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Errorf("pruning decreased benchmark accuracy: %v -> %v", before, after)
	}
}

func TestRAGCorpusErrors(t *testing.T) {
	if _, err := NewRAGCorpus(nil, nil); err == nil {
		t.Error("expected error for empty corpus")
	}
	if _, err := NewRAGCorpus([]string{"a"}, []int{0, 1}); err == nil {
		t.Error("expected error for mismatched labels")
	}
	docs, labels, _, _, _ := ragFixture()
	c, err := NewRAGCorpus(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DocumentImportance(nil, nil, 3); err == nil {
		t.Error("expected error for empty benchmark")
	}
	if _, _, err := c.PruneNegative(Scores{1}); err == nil {
		t.Error("expected error for score length mismatch")
	}
	if _, err := c.BenchmarkAccuracy(nil, nil, 3); err == nil {
		t.Error("expected error for empty benchmark accuracy")
	}
}

func TestRAGCorpusLargerSweep(t *testing.T) {
	// scale the corpus by repeating templated docs; importance must stay
	// well-defined and pruning must never crash across k values
	docs, labels, queries, answers, _ := ragFixture()
	for i := 0; i < 20; i++ {
		docs = append(docs, fmt.Sprintf("additional supportive evidence case %d shows improvement", i))
		labels = append(labels, 1)
		docs = append(docs, fmt.Sprintf("additional null result case %d shows no effect", i))
		labels = append(labels, 0)
	}
	c, err := NewRAGCorpus(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5} {
		scores, err := c.DocumentImportance(queries, answers, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(scores) != len(docs) {
			t.Fatalf("k=%d: scores = %d", k, len(scores))
		}
	}
}
