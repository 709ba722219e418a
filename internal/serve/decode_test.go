package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"nde/internal/datagen"
	"nde/internal/linalg"
	"nde/internal/ml"
)

// mixtureSplit draws rows of a dim-dimensional Gaussian mixture with
// parity labels, the shape of the serve-cold benchmark's datasets.
func mixtureSplit(t testing.TB, r *rand.Rand, rows, dim int) *ml.Dataset {
	t.Helper()
	x := linalg.NewMatrix(rows, dim)
	y := make([]int, rows)
	for i := range y {
		c := r.Intn(4)
		for j := range x.Row(i) {
			x.Row(i)[j] = float64(c)*8 + r.NormFloat64()
		}
		y[i] = c % 2
	}
	d, err := ml.NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// inlineSpec is the inline-matrix wire form of d.
func inlineSpec(d *ml.Dataset) *MatrixSpec {
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Row(i)
	}
	return &MatrixSpec{X: rows, Y: d.Y}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// canonicalBodies are registration bodies inside decodeRegister's subset:
// json.Marshal of inline-matrix requests, among them splits corrupted by
// the internal/datagen injectors (label flips, three-class flips,
// out-of-distribution rows whose features print with exponents).
func canonicalBodies(t testing.TB) map[string][]byte {
	r := rand.New(rand.NewSource(5))
	train, valid := mixtureSplit(t, r, 12, 4), mixtureSplit(t, r, 4, 4)
	flipped, _, err := datagen.FlipDatasetLabels(train, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	ood, _ := datagen.AppendOOD(flipped, 3, 1e22, 4)
	three := mixtureSplit(t, r, 9, 4)
	for i := range three.Y {
		three.Y[i] = i % 3
	}
	if three, _, err = datagen.FlipDatasetLabels(three, 0.5, 6); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"serve-cold": mustMarshal(t, RegisterRequest{Train: inlineSpec(flipped), Valid: inlineSpec(valid)}),
		"ood": mustMarshal(t, RegisterRequest{
			Name: "ood rows", Train: inlineSpec(ood), Valid: inlineSpec(valid),
			Test: inlineSpec(valid), Truth: train.Y,
		}),
		"three-class": mustMarshal(t, RegisterRequest{Train: inlineSpec(three), Valid: inlineSpec(valid), Truth: three.Y}),
		"spaced":      []byte(" {\n\t\"valid\" : { \"y\" : [ 0 , 1 ] , \"x\" : [ [ -0 , 2.5e-3 ] , [ 1E+2 , -7 ] ] } ,\r\n \"train\":{\"x\":[[],[1]],\"y\":[],\"label\":\"\"}, \"truth\": [] } \n"),
		"empty":       []byte(`{}`),
		"neg-zero":    []byte(`{"train":{"x":[[-0,0,-0.0,0e5,-0E-5]],"y":[-0]},"valid":{"x":[[]]}}`),
		// numbers the scanner hands to strconv.ParseFloat: the smallest
		// subnormal and normal, the largest float, underflow, a halfway
		// integer and mantissas past 19 digits
		"hard-numbers": []byte(`{"train":{"x":[[4.9406564584124654e-324,2.2250738585072011e-308,1.7976931348623157e308],` +
			`[1e-400,9007199254740993,12345678901234567890123]],"y":[0,1]},` +
			`"valid":{"x":[[0.12345678901234567890123,-1.00000000000000000000001,9007199254740993.0000000000000000001]],"y":[7]}}`),
	}
}

// outsideBodies are bodies the fast path must hand to encoding/json:
// escaped strings, non-canonical keys, null, numbers encoding/json
// rejects or reads differently, trailing bytes and unknown fields.
func outsideBodies(t testing.TB) map[string][]byte {
	csv := mustMarshal(t, RegisterRequest{
		Train: &MatrixSpec{CSV: "f1,f2,label\n1,2,0\n3,4,1\n"},
		Valid: &MatrixSpec{CSV: "f1,f2,label\n1,2,0\n", Label: "label"},
	})
	h := datagen.Hiring(datagen.Config{N: 40, Seed: 2})
	letters, err := h.Letters.Select("person_id", "employer_rating")
	if err != nil {
		t.Fatal(err)
	}
	if letters, _, err = datagen.InjectMissing(letters, "employer_rating", 0.2, datagen.MissingMNAR, 3); err != nil {
		t.Fatal(err)
	}
	if letters, _, err = datagen.InjectOutliers(letters, "employer_rating", 0.2, 1e6, 4); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := letters.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	dirtyCSV := mustMarshal(t, RegisterRequest{
		Train: &MatrixSpec{CSV: sb.String(), Label: "person_id"},
		Valid: &MatrixSpec{CSV: sb.String(), Label: "person_id"},
	})
	return map[string][]byte{
		"csv":            csv,
		"csv-datagen":    dirtyCSV,
		"upper-keys":     []byte(`{"Train":{"X":[[1]],"Y":[0]},"valid":{"x":[[1]],"y":[0]}}`),
		"upper-top":      []byte(`{"TRAIN":{"x":[[1]],"y":[0]}}`),
		"upper-split":    []byte(`{"train":{"x":[[1]],"Y":[0]}}`),
		"dup-top":        []byte(`{"train":{"x":[[1]]},"train":{"y":[1]}}`),
		"dup-split":      []byte(`{"train":{"x":[[1]],"x":[[2,3]]}}`),
		"null-split":     []byte(`{"train":null,"valid":{"x":[[1]],"y":[0]}}`),
		"null-x":         []byte(`{"train":{"x":null,"y":[0]}}`),
		"null-row":       []byte(`{"train":{"x":[null],"y":[0]}}`),
		"null-name":      []byte(`{"name":null}`),
		"null-body":      []byte(`null`),
		"huge":           []byte(`{"train":{"x":[[1e400]],"y":[0]}}`),
		"past-max":       []byte(`{"train":{"x":[[1.7976931348623159e308]],"y":[0]}}`),
		"leading-zero":   []byte(`{"train":{"x":[[01]],"y":[0]}}`),
		"float-label":    []byte(`{"train":{"x":[[1]],"y":[1.0]}}`),
		"exp-label":      []byte(`{"truth":[1e2]}`),
		"int-overflow":   []byte(`{"truth":[9223372036854775808]}`),
		"trailing":       []byte(`{"train":{"x":[[1]],"y":[0]}} x`),
		"second-value":   []byte(`{}{}`),
		"unknown-top":    []byte(`{"train":{"x":[[1]],"y":[0]},"bogus":1}`),
		"unknown-split":  []byte(`{"train":{"x":[[1]],"y":[0],"w":[2]}}`),
		"escaped-name":   []byte(`{"name":"a\u0041\n"}`),
		"utf8-name":      []byte("{\"name\":\"caf\xc3\xa9\"}"),
		"ctrl-name":      []byte("{\"name\":\"a\tb\"}"),
		"trailing-comma": []byte(`{"train":{"x":[[1,]],"y":[0]}}`),
		"bare-dot":       []byte(`{"train":{"x":[[1.]],"y":[0]}}`),
		"plus":           []byte(`{"train":{"x":[[+1]],"y":[0]}}`),
		"truncated":      []byte(`{"train":{"x":[[1`),
		"x-of-strings":   []byte(`{"train":{"x":[["1"]],"y":[0]}}`),
		"flat-x":         []byte(`{"train":{"x":[1,2],"y":[0]}}`),
	}
}

// checkAgainstJSON fails unless body, accepted by the fast path, decodes
// under encoding/json without error to a reflect.DeepEqual request whose
// features are also Float64bits-equal (DeepEqual holds -0 equal to 0).
func checkAgainstJSON(t *testing.T, body []byte, fast *RegisterRequest) {
	t.Helper()
	var ref RegisterRequest
	rec := httptest.NewRecorder()
	if !decodeJSON(rec, body, &ref) {
		t.Fatalf("fast path accepted a body encoding/json rejects (%s): %q", rec.Body, body)
	}
	if !reflect.DeepEqual(*fast, ref) {
		t.Fatalf("fast path %+v, encoding/json %+v, body %q", *fast, ref, body)
	}
	for _, pair := range [][2]*MatrixSpec{{fast.Train, ref.Train}, {fast.Valid, ref.Valid}, {fast.Test, ref.Test}} {
		if pair[0] == nil {
			continue
		}
		for i, row := range pair[0].X {
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(pair[1].X[i][j]) {
					t.Fatalf("x[%d][%d]: fast %v, encoding/json %v, body %q", i, j, v, pair[1].X[i][j], body)
				}
			}
		}
	}
}

// Differential fuzzer: whenever decodeRegister accepts a body,
// encoding/json accepts it too and yields the same request.
func FuzzDecodeRegister(f *testing.F) {
	for _, bodies := range []map[string][]byte{canonicalBodies(f), outsideBodies(f)} {
		names := make([]string, 0, len(bodies))
		for name := range bodies {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f.Add(bodies[name])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast RegisterRequest
		if decodeRegister(body, &fast) {
			checkAgainstJSON(t, body, &fast)
		}
	})
}

// The fast path takes every canonical body — so the fuzzer's oracle is
// exercised — with the rows of each x laid end to end in one backing
// array, and leaves every body outside the subset, untouched, to
// encoding/json.
func TestDecodeRegisterSubset(t *testing.T) {
	for name, body := range canonicalBodies(t) {
		var fast RegisterRequest
		if !decodeRegister(body, &fast) {
			t.Errorf("%s: fast path refused a canonical body %q", name, body)
			continue
		}
		checkAgainstJSON(t, body, &fast)
		for _, spec := range []*MatrixSpec{fast.Train, fast.Valid, fast.Test} {
			if spec == nil {
				continue
			}
			next := uintptr(0)
			for i, row := range spec.X {
				if len(row) == 0 {
					continue
				}
				p := reflect.ValueOf(row).Pointer()
				if next != 0 && p != next {
					t.Errorf("%s: row %d does not follow the previous row in one backing array", name, i)
				}
				next = p + uintptr(len(row))*8
			}
		}
	}
	for name, body := range outsideBodies(t) {
		req := RegisterRequest{Name: "untouched"}
		if decodeRegister(body, &req) {
			t.Errorf("%s: fast path accepted %q", name, body)
		}
		if req.Name != "untouched" || req.Train != nil {
			t.Errorf("%s: a refused body changed the request: %+v", name, req)
		}
	}
}

// A body past MaxBodyBytes is 413 body_too_large on every endpoint, with
// or without a declared length, even when its JSON value ends before the
// cap.
func TestBodyTooLarge413(t *testing.T) {
	s := NewServer(Config{MaxBodyBytes: 64})
	h := s.Handler()
	value := `{"dataset":"d-x"}`
	body := value + strings.Repeat(" ", 100)
	for _, path := range []string{"/v1/datasets", "/v1/importance"} {
		for _, declared := range []bool{true, false} {
			var rd io.Reader = strings.NewReader(body)
			if !declared {
				rd = io.MultiReader(rd) // hides the length: ContentLength -1
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, rd))
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusRequestEntityTooLarge || e.Class != "body_too_large" {
				t.Errorf("%s declared=%v: %d %s, want 413 body_too_large", path, declared, rec.Code, rec.Body)
			}
		}
	}
	// at the cap exactly the body is read and decoded as usual
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/importance",
		bytes.NewReader([]byte(value+strings.Repeat(" ", 64-len(value))))))
	if rec.Code != http.StatusNotFound {
		t.Errorf("body of exactly MaxBodyBytes = %d %s, want 404 not_found", rec.Code, rec.Body)
	}
}

// An inline split the fast path decoded is registered without a copy:
// its matrix's data is the array the decoder laid the rows out in. Rows
// that are not one array's consecutive windows — encoding/json's, or
// one array's rows out of order — are copied, and every split holds the
// decoded values either way.
func TestRegisteredInlineSplitAliasesDecodedRows(t *testing.T) {
	body := mustMarshal(t, RegisterRequest{Train: inlineSpec(mixtureSplit(t, rand.New(rand.NewSource(9)), 12, 4)),
		Valid: inlineSpec(mixtureSplit(t, rand.New(rand.NewSource(10)), 4, 4))})
	var fast, slow RegisterRequest
	if !decodeRegister(body, &fast) {
		t.Fatal("fast path refused a canonical body")
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	flat := []float64{1, 2, 3, 4, 5, 6}
	swapped := [][]float64{flat[2:4], flat[0:2], flat[4:6]}
	for _, c := range []struct {
		name  string
		rows  [][]float64
		alias bool
	}{
		{"fast train", fast.Train.X, true},
		{"fast valid", fast.Valid.X, true},
		{"encoding/json train", slow.Train.X, false},
		{"one array out of order", swapped, false},
	} {
		d, err := datasetFromMatrix("train", c.rows, make([]int, len(c.rows)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dim := len(c.rows[0])
		for r, row := range c.rows {
			if got := d.X.Row(r); !slices.Equal(got, row) {
				t.Fatalf("%s: row %d = %v, decoded %v", c.name, r, got, row)
			}
			if aliased := &d.X.Data[r*dim] == &row[0]; aliased != c.alias {
				t.Errorf("%s: row %d aliases its decoded row: %v, want %v", c.name, r, aliased, c.alias)
			}
		}
		if cap(d.X.Data) != len(d.X.Data) {
			t.Errorf("%s: matrix data has capacity %d past its %d elements", c.name, cap(d.X.Data), len(d.X.Data))
		}
	}
}
