package frame

import "fmt"

// Frame is an ordered collection of equally long Series, i.e. a table.
// Frames are value-like: operations return new frames and never mutate
// their receiver unless the method name says so (AddColumn, Set...).
type Frame struct {
	cols  []*Series
	index map[string]int
}

// New builds a frame from the given columns. All columns must have the same
// length and distinct names.
func New(cols ...*Series) (*Frame, error) {
	f := &Frame{index: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := f.addColumn(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// MustNew is New panicking on error; for statically correct constructions.
func MustNew(cols ...*Series) *Frame {
	f, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Frame) addColumn(c *Series) error {
	if _, dup := f.index[c.Name()]; dup {
		return fmt.Errorf("frame: duplicate column %q", c.Name())
	}
	if len(f.cols) > 0 && c.Len() != f.NumRows() {
		return fmt.Errorf("frame: column %q has %d rows, frame has %d", c.Name(), c.Len(), f.NumRows())
	}
	f.index[c.Name()] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// NumRows returns the number of rows (0 for a frame with no columns).
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// ColumnNames returns the column names in order.
func (f *Frame) ColumnNames() []string {
	names := make([]string, len(f.cols))
	for i, c := range f.cols {
		names[i] = c.Name()
	}
	return names
}

// HasColumn reports whether a column with the given name exists.
func (f *Frame) HasColumn(name string) bool {
	_, ok := f.index[name]
	return ok
}

// Column returns the column with the given name, or an error if absent.
func (f *Frame) Column(name string) (*Series, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, fmt.Errorf("frame: no column %q (have %v)", name, f.ColumnNames())
	}
	return f.cols[i], nil
}

// MustColumn is Column panicking on a missing name.
func (f *Frame) MustColumn(name string) *Series {
	c, err := f.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ColumnAt returns the i-th column.
func (f *Frame) ColumnAt(i int) *Series { return f.cols[i] }

// Value returns the cell at (row, column name).
func (f *Frame) Value(row int, col string) (Value, error) {
	c, err := f.Column(col)
	if err != nil {
		return Null(), err
	}
	if row < 0 || row >= c.Len() {
		return Null(), fmt.Errorf("frame: row %d out of range [0,%d)", row, c.Len())
	}
	return c.Value(row), nil
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	cols := make([]*Series, len(f.cols))
	for i, c := range f.cols {
		cols[i] = c.Clone()
	}
	return MustNew(cols...)
}

// Select returns a frame with only the named columns, in the given order.
func (f *Frame) Select(names ...string) (*Frame, error) {
	cols := make([]*Series, 0, len(names))
	for _, n := range names {
		c, err := f.Column(n)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c.Clone())
	}
	return New(cols...)
}

// AddColumn appends a column to the frame in place.
func (f *Frame) AddColumn(c *Series) error { return f.addColumn(c) }

// WithColumn returns a copy of the frame with the column appended, or with
// an existing same-named column replaced.
func (f *Frame) WithColumn(c *Series) (*Frame, error) {
	cols := make([]*Series, 0, len(f.cols)+1)
	replaced := false
	for _, old := range f.cols {
		if old.Name() == c.Name() {
			cols = append(cols, c.Clone())
			replaced = true
		} else {
			cols = append(cols, old.Clone())
		}
	}
	if !replaced {
		cols = append(cols, c.Clone())
	}
	return New(cols...)
}

// Take returns a frame with the rows at the given indices, in order.
// Indices may repeat; all must be in range.
func (f *Frame) Take(idx []int) *Frame {
	cols := make([]*Series, len(f.cols))
	for i, c := range f.cols {
		cols[i] = c.Take(idx)
	}
	return MustNew(cols...)
}

// Row is a lightweight view of one frame row.
type Row struct {
	f *Frame
	i int
}

// Row returns a view of row i.
func (f *Frame) Row(i int) Row { return Row{f: f, i: i} }

// Index returns the row's position in its frame.
func (r Row) Index() int { return r.i }

// Value returns the named cell; it panics on unknown columns.
func (r Row) Value(col string) Value {
	v, err := r.f.Value(r.i, col)
	if err != nil {
		panic(err)
	}
	return v
}

// IsNull reports whether the named cell is null.
func (r Row) IsNull(col string) bool { return r.Value(col).IsNull() }

// Str returns the named cell as string.
func (r Row) Str(col string) string { return r.Value(col).Str() }

// Filter returns the rows for which pred is true, along with the indices of
// the kept input rows (the row-level lineage of the output).
func (f *Frame) Filter(pred func(Row) bool) (*Frame, []int) {
	var idx []int
	for i := 0; i < f.NumRows(); i++ {
		if pred(f.Row(i)) {
			idx = append(idx, i)
		}
	}
	return f.Take(idx), idx
}

// Concat vertically stacks frames with identical schemas (same column names,
// order and kinds). It returns, for each output row, the frame index and the
// row index it came from.
func Concat(frames ...*Frame) (*Frame, []int, []int, error) {
	if len(frames) == 0 {
		return MustNew(), nil, nil, nil
	}
	first := frames[0]
	cols := make([]*Series, first.NumCols())
	for i, c := range first.cols {
		cols[i] = c.Clone()
	}
	var srcFrame, srcRow []int
	for r := 0; r < first.NumRows(); r++ {
		srcFrame = append(srcFrame, 0)
		srcRow = append(srcRow, r)
	}
	for fi := 1; fi < len(frames); fi++ {
		g := frames[fi]
		if g.NumCols() != first.NumCols() {
			return nil, nil, nil, fmt.Errorf("frame: concat schema mismatch: %d vs %d columns", first.NumCols(), g.NumCols())
		}
		for ci, c := range g.cols {
			if c.Name() != cols[ci].Name() || c.Kind() != cols[ci].Kind() {
				return nil, nil, nil, fmt.Errorf("frame: concat schema mismatch at column %d: %s %s vs %s %s",
					ci, cols[ci].Name(), cols[ci].Kind(), c.Name(), c.Kind())
			}
			if err := cols[ci].AppendSeries(c); err != nil {
				return nil, nil, nil, err
			}
		}
		for r := 0; r < g.NumRows(); r++ {
			srcFrame = append(srcFrame, fi)
			srcRow = append(srcRow, r)
		}
	}
	out, err := New(cols...)
	if err != nil {
		return nil, nil, nil, err
	}
	return out, srcFrame, srcRow, nil
}

// Equal reports deep equality of schemas and data.
func (f *Frame) Equal(o *Frame) bool {
	if f.NumCols() != o.NumCols() {
		return false
	}
	for i, c := range f.cols {
		if !c.Equal(o.cols[i]) {
			return false
		}
	}
	return true
}

// Map appends a new column computed from each row by fn; errors from fn
// abort the operation. The result kind must be consistent across rows.
func (f *Frame) Map(newCol string, kind Kind, fn func(Row) (Value, error)) (*Frame, error) {
	vals := make([]Value, f.NumRows())
	for i := 0; i < f.NumRows(); i++ {
		v, err := fn(f.Row(i))
		if err != nil {
			return nil, fmt.Errorf("frame: map %q row %d: %w", newCol, i, err)
		}
		vals[i] = v
	}
	s, err := NewSeriesOf(newCol, kind, vals)
	if err != nil {
		return nil, err
	}
	return f.WithColumn(s)
}
