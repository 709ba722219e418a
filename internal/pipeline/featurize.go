package pipeline

import (
	"fmt"
	"sort"

	"nde/internal/encode"
	"nde/internal/ml"
	"nde/internal/prov"
)

// Featurized is the terminal output of a preprocessing pipeline: a model-
// ready dataset whose rows still carry the provenance products linking
// them back to the pipeline's source tuples.
type Featurized struct {
	Data         *ml.Dataset
	Prov         []prov.Polynomial
	FeatureNames []string
	LabelNames   []string // label index -> original label string
}

// Featurize encodes a pipeline result into a training dataset. The label
// column is mapped to consecutive integers in sorted order of its distinct
// rendered values (so "negative" -> 0, "positive" -> 1 for a binary
// sentiment task). Rows with a null label are rejected. An optional groups
// column attaches protected-group values for fairness metrics ("" = none).
func Featurize(res *Result, ct *encode.ColumnTransformer, labelCol, groupsCol string) (*Featurized, error) {
	x, err := ct.FitTransform(res.Frame)
	if err != nil {
		return nil, err
	}
	labels, err := res.Frame.Column(labelCol)
	if err != nil {
		return nil, err
	}
	distinct := make(map[string]bool)
	for i := 0; i < labels.Len(); i++ {
		if labels.IsNull(i) {
			return nil, fmt.Errorf("pipeline: null label at row %d of column %q", i, labelCol)
		}
		distinct[labels.Value(i).String()] = true
	}
	names := make([]string, 0, len(distinct))
	for s := range distinct {
		names = append(names, s)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, s := range names {
		index[s] = i
	}
	y := make([]int, labels.Len())
	for i := 0; i < labels.Len(); i++ {
		y[i] = index[labels.Value(i).String()]
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		return nil, err
	}
	if groupsCol != "" {
		gcol, err := res.Frame.Column(groupsCol)
		if err != nil {
			return nil, err
		}
		groups := make([]string, gcol.Len())
		for i := range groups {
			if !gcol.IsNull(i) {
				groups[i] = gcol.Value(i).String()
			}
		}
		if d, err = d.WithGroups(groups); err != nil {
			return nil, err
		}
	}
	return &Featurized{Data: d, Prov: res.Prov, FeatureNames: ct.FeatureNames(), LabelNames: names}, nil
}

// SourceRows returns, for every output row, the source tuples it depends on
// within the named table (its which-provenance restricted to that table).
func (f *Featurized) SourceRows(table string) [][]int {
	out := make([][]int, len(f.Prov))
	for i, p := range f.Prov {
		for _, v := range p {
			if v.Table == table {
				out[i] = append(out[i], v.Row)
			}
		}
	}
	return out
}

// OutputsOf inverts SourceRows: for each row index of the named source
// table, the list of output rows whose provenance mentions it.
func (f *Featurized) OutputsOf(table string, tableRows int) [][]int {
	out := make([][]int, tableRows)
	for o, p := range f.Prov {
		for _, v := range p {
			if v.Table == table && v.Row < tableRows {
				out[v.Row] = append(out[v.Row], o)
			}
		}
	}
	return out
}
