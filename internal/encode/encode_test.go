package encode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nde/internal/frame"
)

func TestStandardScaler(t *testing.T) {
	s := frame.NewFloatSeries("x", []float64{2, 4, 6, 0}, []bool{true, true, true, false})
	e := NewStandardScaler()
	if err := e.Fit(s); err != nil {
		t.Fatal(err)
	}
	if e.mean != 4 {
		t.Errorf("mean = %v", e.mean)
	}
	m, err := e.Transform(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 4 || m.Cols != 1 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 0 {
		t.Errorf("scaled mean value = %v", m.At(1, 0))
	}
	if m.At(3, 0) != 0 {
		t.Errorf("null should scale to 0, got %v", m.At(3, 0))
	}
	if math.Abs(m.At(0, 0)+m.At(2, 0)) > 1e-12 {
		t.Errorf("symmetric values should scale symmetrically: %v vs %v", m.At(0, 0), m.At(2, 0))
	}
	if e.Names()[0] != "x_scaled" {
		t.Errorf("names = %v", e.Names())
	}
}

func TestStandardScalerConstantColumn(t *testing.T) {
	s := frame.NewFloatSeries("c", []float64{5, 5, 5}, nil)
	e := NewStandardScaler()
	if err := e.Fit(s); err != nil {
		t.Fatal(err)
	}
	m, _ := e.Transform(s)
	for i := 0; i < 3; i++ {
		if m.At(i, 0) != 0 {
			t.Errorf("constant column should scale to 0, got %v", m.At(i, 0))
		}
	}
}

func TestScalerErrors(t *testing.T) {
	allNull := frame.NewFloatSeries("n", []float64{0}, []bool{false})
	if err := NewStandardScaler().Fit(allNull); err == nil {
		t.Error("expected error on all-null fit")
	}
	if _, err := NewStandardScaler().Transform(allNull); err == nil {
		t.Error("expected error on transform before fit")
	}
}

func TestOneHotEncoder(t *testing.T) {
	s := frame.NewStringSeries("deg", []string{"bsc", "msc", "bsc", "phd"}, nil)
	e := NewOneHotEncoder()
	if err := e.Fit(s); err != nil {
		t.Fatal(err)
	}
	if got := e.categories; len(got) != 3 || got[0] != "bsc" || got[2] != "phd" {
		t.Errorf("categories = %v", got)
	}
	test := frame.NewStringSeries("deg", []string{"msc", "unknown", ""}, []bool{true, true, false})
	m, err := e.Transform(test)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cols != 3 {
		t.Fatalf("cols = %d", m.Cols)
	}
	if m.At(0, 1) != 1 || m.At(0, 0) != 0 {
		t.Error("known category wrong")
	}
	for j := 0; j < 3; j++ {
		if m.At(1, j) != 0 || m.At(2, j) != 0 {
			t.Error("unknown/null should be all zeros")
		}
	}
	if e.Names()[1] != "deg=msc" {
		t.Errorf("names = %v", e.Names())
	}
}

func TestOneHotIntColumn(t *testing.T) {
	s := frame.NewIntSeries("k", []int64{1, 2, 1}, nil)
	e := NewOneHotEncoder()
	if err := e.Fit(s); err != nil {
		t.Fatal(err)
	}
	m, _ := e.Transform(s)
	if m.Cols != 2 || m.At(1, 1) != 1 {
		t.Error("int one-hot wrong")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, world! 2nd TIME")
	want := []string{"hello", "world", "2nd", "time"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestHashingVectorizer(t *testing.T) {
	s := frame.NewStringSeries("txt", []string{"good good work", "bad work", ""}, []bool{true, true, false})
	e := NewHashingVectorizer(16)
	if err := e.Fit(s); err != nil {
		t.Fatal(err)
	}
	m, err := e.Transform(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cols != 16 {
		t.Fatalf("cols = %d", m.Cols)
	}
	sum0, sum1, sum2 := 0.0, 0.0, 0.0
	for j := 0; j < 16; j++ {
		sum0 += m.At(0, j)
		sum1 += m.At(1, j)
		sum2 += m.At(2, j)
	}
	if sum0 != 3 || sum1 != 2 || sum2 != 0 {
		t.Errorf("token counts = %v %v %v", sum0, sum1, sum2)
	}
	intCol := frame.NewIntSeries("i", []int64{1}, nil)
	if err := NewHashingVectorizer(8).Fit(intCol); err == nil {
		t.Error("expected error for non-string column")
	}
}

func TestTfidfVectorizer(t *testing.T) {
	s := frame.NewStringSeries("txt", []string{
		"excellent work excellent", "poor work", "excellent hire",
	}, nil)
	e := NewTfidfVectorizer(0)
	if err := e.Fit(s); err != nil {
		t.Fatal(err)
	}
	vocab := e.terms
	if len(vocab) != 4 { // excellent, hire, poor, work
		t.Fatalf("vocab = %v", vocab)
	}
	m, err := e.Transform(s)
	if err != nil {
		t.Fatal(err)
	}
	// rows are L2 normalized
	for i := 0; i < 3; i++ {
		n := 0.0
		for j := 0; j < m.Cols; j++ {
			n += m.At(i, j) * m.At(i, j)
		}
		if math.Abs(n-1) > 1e-9 {
			t.Errorf("row %d norm² = %v", i, n)
		}
	}
	// unknown tokens ignored
	test := frame.NewStringSeries("txt", []string{"zebra quantum"}, nil)
	mt, _ := e.Transform(test)
	for j := 0; j < mt.Cols; j++ {
		if mt.At(0, j) != 0 {
			t.Error("unknown tokens should produce zero row")
		}
	}
}

func TestTfidfMaxFeatures(t *testing.T) {
	s := frame.NewStringSeries("txt", []string{"a b c", "a b", "a"}, nil)
	e := NewTfidfVectorizer(2)
	if err := e.Fit(s); err != nil {
		t.Fatal(err)
	}
	v := e.terms
	if len(v) != 2 || v[0] != "a" || v[1] != "b" {
		t.Errorf("capped vocab = %v", v)
	}
}

func TestImputerStrategies(t *testing.T) {
	num := frame.NewFloatSeries("x", []float64{1, 3, 0, 100}, []bool{true, true, false, true})
	mean, err := NewImputer(ImputeMean).FitTransform(num)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean.Float(2)-104.0/3) > 1e-9 {
		t.Errorf("mean imputed = %v", mean.Float(2))
	}
	med, err := NewImputer(ImputeMedian).FitTransform(num)
	if err != nil {
		t.Fatal(err)
	}
	if med.Float(2) != 3 {
		t.Errorf("median imputed = %v", med.Float(2))
	}
	cat := frame.NewStringSeries("c", []string{"a", "b", "a", ""}, []bool{true, true, true, false})
	mode, err := NewImputer(ImputeMode).FitTransform(cat)
	if err != nil {
		t.Fatal(err)
	}
	if mode.Str(3) != "a" {
		t.Errorf("mode imputed = %q", mode.Str(3))
	}
	ci := NewImputer(ImputeConstant)
	ci.Constant = frame.Str("missing")
	constant, err := ci.FitTransform(cat)
	if err != nil {
		t.Fatal(err)
	}
	if constant.Str(3) != "missing" {
		t.Errorf("constant imputed = %q", constant.Str(3))
	}
}

func TestImputerErrors(t *testing.T) {
	cat := frame.NewStringSeries("c", []string{"a"}, nil)
	if err := NewImputer(ImputeMean).Fit(cat); err == nil {
		t.Error("expected error imputing mean of string column")
	}
	if err := NewImputer(ImputeConstant).Fit(cat); err == nil {
		t.Error("expected error for null constant")
	}
	if _, err := NewImputer(ImputeMean).Transform(cat); err == nil {
		t.Error("expected error on transform before fit")
	}
	if ImputeMean.String() != "mean" || ImputeConstant.String() != "constant" {
		t.Error("strategy names wrong")
	}
}

func TestImputerDoesNotMutateInput(t *testing.T) {
	num := frame.NewFloatSeries("x", []float64{1, 0}, []bool{true, false})
	if _, err := NewImputer(ImputeMean).FitTransform(num); err != nil {
		t.Fatal(err)
	}
	if !num.IsNull(1) {
		t.Error("imputer mutated its input")
	}
}

func TestColumnTransformer(t *testing.T) {
	f := frame.MustNew(
		frame.NewFloatSeries("age", []float64{20, 40, 0}, []bool{true, true, false}),
		frame.NewStringSeries("deg", []string{"bsc", "", "msc"}, []bool{true, false, true}),
		frame.NewStringSeries("txt", []string{"great work", "poor", "great"}, nil),
	)
	ct := NewColumnTransformer(
		ColumnSpec{Column: "age", Imputer: NewImputer(ImputeMean), Encoder: NewStandardScaler()},
		ColumnSpec{Column: "deg", Imputer: NewImputer(ImputeMode), Encoder: NewOneHotEncoder()},
		ColumnSpec{Column: "txt", Encoder: NewHashingVectorizer(8)},
	)
	x, err := ct.FitTransform(f)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 3 || x.Cols != 1+2+8 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	names := ct.FeatureNames()
	if len(names) != 11 || names[0] != "age_scaled" {
		t.Errorf("names = %v", names)
	}
	// deg row 1 was null -> imputed to mode ("bsc" or "msc" tie -> deterministic)
	sum := x.At(1, 1) + x.At(1, 2)
	if sum != 1 {
		t.Errorf("imputed one-hot row should have exactly one indicator, got %v", sum)
	}
}

func TestColumnTransformerErrors(t *testing.T) {
	f := frame.MustNew(frame.NewFloatSeries("a", []float64{1}, nil))
	if err := NewColumnTransformer().Fit(f); err == nil {
		t.Error("expected error for no specs")
	}
	ct := NewColumnTransformer(ColumnSpec{Column: "missing", Encoder: NewStandardScaler()})
	if err := ct.Fit(f); err == nil {
		t.Error("expected error for unknown column")
	}
	ct2 := NewColumnTransformer(ColumnSpec{Column: "a", Encoder: NewStandardScaler()})
	if _, err := ct2.Transform(f); err == nil {
		t.Error("expected error transforming before fit")
	}
}

// Property: one-hot rows sum to 1 for values seen at fit time and 0 for
// unseen/null values.
func TestQuickOneHotRowSums(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size%30) + 1
		vals := make([]string, n)
		valid := make([]bool, n)
		for i := range vals {
			vals[i] = string(rune('a' + r.Intn(4)))
			valid[i] = r.Float64() > 0.2
		}
		s := frame.NewStringSeries("c", vals, valid)
		e := NewOneHotEncoder()
		if err := e.Fit(s); err != nil {
			// all-null columns are rejected; that's fine
			return s.NullCount() == n
		}
		m, err := e.Transform(s)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < m.Cols; j++ {
				sum += m.At(i, j)
			}
			if valid[i] && sum != 1 {
				return false
			}
			if !valid[i] && sum != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: standard scaling produces (approximately) zero mean over the
// originally non-null entries.
func TestQuickStandardScalerZeroMean(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size%40) + 2
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 10
		}
		s := frame.NewFloatSeries("x", vals, nil)
		e := NewStandardScaler()
		if err := e.Fit(s); err != nil {
			return false
		}
		m, err := e.Transform(s)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += m.At(i, 0)
		}
		return math.Abs(sum/float64(n)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
