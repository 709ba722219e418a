package importance

import (
	"fmt"

	"nde/internal/encode"
	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
)

// This file implements data importance for retrieval-augmented generation
// (Lyu et al., 2023 — surveyed in §2.1): when an inference pipeline answers
// queries by retrieving documents from a corpus and aggregating their
// evidence, the "training data" to debug is the corpus itself. Because
// retrieval-augmented prediction is a k-nearest-neighbor computation over
// the corpus, the exact kNN-Shapley machinery applies verbatim — each
// corpus document gets a Shapley value measuring its contribution to answer
// quality, and polluted or off-topic documents surface at the bottom.

// RAGCorpus is a retrieval corpus of labeled documents embedded into a
// shared vector space.
type RAGCorpus struct {
	Docs   []string
	Labels []int // the answer/verdict each document supports

	vec  *encode.TfidfVectorizer
	data *ml.Dataset
}

// NewRAGCorpus embeds the documents with TF-IDF (fitted on the corpus).
func NewRAGCorpus(docs []string, labels []int) (*RAGCorpus, error) {
	if len(docs) == 0 || len(docs) != len(labels) {
		return nil, fmt.Errorf("importance: corpus needs matching docs (%d) and labels (%d)", len(docs), len(labels))
	}
	c := &RAGCorpus{Docs: docs, Labels: append([]int(nil), labels...)}
	c.vec = encode.NewTfidfVectorizer(0)
	series := docsSeries(docs)
	if err := c.vec.Fit(series); err != nil {
		return nil, err
	}
	x, err := c.vec.Transform(series)
	if err != nil {
		return nil, err
	}
	d, err := ml.NewDataset(x, c.Labels)
	if err != nil {
		return nil, err
	}
	c.data = d
	return c, nil
}

// Answer retrieves the k nearest documents to the query and returns their
// majority label — the retrieval-augmented prediction.
func (c *RAGCorpus) Answer(query string, k int) (int, error) {
	q, err := c.embedQueries([]string{query})
	if err != nil {
		return 0, err
	}
	m := ml.NewKNN(k)
	if err := m.Fit(c.data); err != nil {
		return 0, err
	}
	return m.Predict(q.Row(0)), nil
}

// DocumentImportance computes the exact kNN-Shapley value of every corpus
// document with respect to a benchmark of (query, expected answer) pairs.
// Low-importance documents are the ones whose retrieval hurts answers —
// polluted, mislabeled or adversarial corpus entries.
func (c *RAGCorpus) DocumentImportance(queries []string, answers []int, k int) (Scores, error) {
	if len(queries) == 0 || len(queries) != len(answers) {
		return nil, fmt.Errorf("importance: benchmark needs matching queries (%d) and answers (%d)", len(queries), len(answers))
	}
	q, err := c.embedQueries(queries)
	if err != nil {
		return nil, err
	}
	bench, err := ml.NewDataset(q, answers)
	if err != nil {
		return nil, err
	}
	return KNNShapley(k, c.data, bench)
}

// PruneNegative removes every document with a strictly negative importance
// score — the conservative cleanup: under the kNN utility a negative
// Shapley value means the document lowers expected answer accuracy, so
// removal cannot hurt the additive utility decomposition.
func (c *RAGCorpus) PruneNegative(scores Scores) (*RAGCorpus, []int, error) {
	if len(scores) != len(c.Docs) {
		return nil, nil, fmt.Errorf("importance: %d scores for %d docs", len(scores), len(c.Docs))
	}
	var drop []int
	for i, s := range scores {
		if s < 0 {
			drop = append(drop, i)
		}
	}
	if len(drop) == len(c.Docs) {
		return nil, nil, fmt.Errorf("importance: every document scored negative; refusing to empty the corpus")
	}
	dropSet := make(map[int]bool, len(drop))
	for _, i := range drop {
		dropSet[i] = true
	}
	var docs []string
	var labels []int
	for i := range c.Docs {
		if !dropSet[i] {
			docs = append(docs, c.Docs[i])
			labels = append(labels, c.Labels[i])
		}
	}
	pruned, err := NewRAGCorpus(docs, labels)
	if err != nil {
		return nil, nil, err
	}
	return pruned, drop, nil
}

// BenchmarkAccuracy answers every benchmark query and returns the fraction
// matching the expected answers.
func (c *RAGCorpus) BenchmarkAccuracy(queries []string, answers []int, k int) (float64, error) {
	if len(queries) == 0 {
		return 0, fmt.Errorf("importance: empty benchmark")
	}
	correct := 0
	for i, q := range queries {
		got, err := c.Answer(q, k)
		if err != nil {
			return 0, err
		}
		if got == answers[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(queries)), nil
}

func (c *RAGCorpus) embedQueries(queries []string) (*linalg.Matrix, error) {
	return c.vec.Transform(docsSeries(queries))
}

func docsSeries(docs []string) *frame.Series {
	return frame.NewStringSeries("doc", docs, nil)
}
