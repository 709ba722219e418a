// Package pipeline implements provenance-tracked ML preprocessing pipelines:
// a DAG of relational operators (sources, filters, joins, projections,
// user-defined map columns) that executes over frames while
// annotating every intermediate and output row with a provenance polynomial
// over source tuples (package prov). This is the substrate that enables
// pipeline-aware data debugging à la mlinspect/Datascope: importance scores
// computed on the training matrix can be pushed back through the provenance
// to the pipeline's source data, and inspections can screen intermediate
// distributions for issues while the pipeline runs.
package pipeline

import (
	"fmt"
	"sync"

	"nde/internal/frame"
)

// Kind enumerates the operator types of a pipeline node.
type Kind int

const (
	// KindSource is a named input table.
	KindSource Kind = iota
	// KindFilter keeps rows matching a predicate.
	KindFilter
	// KindJoin equi-joins two inputs.
	KindJoin
	// KindProject keeps a subset of columns.
	KindProject
	// KindMapCol appends a computed column (a user-defined function).
	KindMapCol
)

// String returns the operator name.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "Source"
	case KindFilter:
		return "Filter"
	case KindJoin:
		return "Join"
	case KindProject:
		return "Project"
	case KindMapCol:
		return "MapCol"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one operator in a pipeline DAG. Nodes are created through the
// Pipeline builder methods and are immutable once built.
type Node struct {
	id     int
	kind   Kind
	label  string
	inputs []*Node

	// operator-specific payloads
	sourceName  string
	sourceFrame *frame.Frame
	pred        func(frame.Row) bool
	leftOn      []string
	rightOn     []string
	joinKind    frame.JoinKind
	columns     []string
	mapCol      string
	mapKind     frame.Kind
	mapFn       func(frame.Row) (frame.Value, error)
}

// ID returns the node's position in its pipeline.
func (n *Node) ID() int { return n.id }

// Label returns the human-readable description used in plan rendering.
func (n *Node) Label() string { return n.label }

// Pipeline is a builder and executor for an operator DAG. All nodes must be
// created through the same Pipeline value.
type Pipeline struct {
	nodes       []*Node
	inspections []Inspection

	statsMu sync.Mutex
	lastRun *RunStats
}

// New returns an empty pipeline.
func New() *Pipeline { return &Pipeline{} }

// AddInspection registers an inspection that observes every node's output
// during Run (mlinspect-style pipeline instrumentation).
func (p *Pipeline) AddInspection(i Inspection) { p.inspections = append(p.inspections, i) }

func (p *Pipeline) add(n *Node) *Node {
	n.id = len(p.nodes)
	p.nodes = append(p.nodes, n)
	return n
}

// Source adds a named input table. The name is the table component of the
// provenance variables assigned to its rows.
func (p *Pipeline) Source(name string, f *frame.Frame) *Node {
	return p.add(&Node{
		kind:        KindSource,
		label:       fmt.Sprintf("Source(%s: %d rows)", name, f.NumRows()),
		sourceName:  name,
		sourceFrame: f,
	})
}

// Filter adds a row filter with a display label such as
// `sector == "healthcare"`.
func (p *Pipeline) Filter(in *Node, label string, pred func(frame.Row) bool) *Node {
	return p.add(&Node{
		kind:   KindFilter,
		label:  fmt.Sprintf("Filter(%s)", label),
		inputs: []*Node{in},
		pred:   pred,
	})
}

// Join adds an equi-join of two inputs on a shared key column.
func (p *Pipeline) Join(left, right *Node, on string, kind frame.JoinKind) *Node {
	return p.JoinOn(left, right, []string{on}, []string{on}, kind)
}

// JoinOn adds an equi-join with explicit key lists per side.
func (p *Pipeline) JoinOn(left, right *Node, leftOn, rightOn []string, kind frame.JoinKind) *Node {
	how := "inner"
	if kind == frame.LeftJoin {
		how = "left"
	}
	return p.add(&Node{
		kind:     KindJoin,
		label:    fmt.Sprintf("Join(%s, on=%v)", how, leftOn),
		inputs:   []*Node{left, right},
		leftOn:   leftOn,
		rightOn:  rightOn,
		joinKind: kind,
	})
}

// Project adds a column projection.
func (p *Pipeline) Project(in *Node, cols ...string) *Node {
	return p.add(&Node{
		kind:    KindProject,
		label:   fmt.Sprintf("Project(%v)", cols),
		inputs:  []*Node{in},
		columns: cols,
	})
}

// MapCol adds a computed column via a user-defined function (for example
// `has_twitter = twitter IS NOT NULL`).
func (p *Pipeline) MapCol(in *Node, newCol string, kind frame.Kind, fn func(frame.Row) (frame.Value, error)) *Node {
	return p.add(&Node{
		kind:    KindMapCol,
		label:   fmt.Sprintf("MapCol(%s)", newCol),
		inputs:  []*Node{in},
		mapCol:  newCol,
		mapKind: kind,
		mapFn:   fn,
	})
}
