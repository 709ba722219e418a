package datagen

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/nderr"
)

func TestHiringShapesAndDeterminism(t *testing.T) {
	h := Hiring(Config{N: 100, Seed: 1})
	if h.Letters.NumRows() != 100 {
		t.Fatalf("letters rows = %d", h.Letters.NumRows())
	}
	for _, want := range []string{"person_id", "job_id", "letter_text", "employer_rating", "sentiment"} {
		if !h.Letters.HasColumn(want) {
			t.Errorf("letters missing column %q", want)
		}
	}
	if h.Jobs.NumRows() < 3 || !h.Jobs.HasColumn("sector") {
		t.Error("jobs table wrong")
	}
	if h.Demographics.NumRows() != 100 {
		t.Error("demographics rows wrong")
	}
	if h.Social.NumRows() == 0 || h.Social.NumRows() >= 100 {
		t.Errorf("social rows = %d, want partial coverage", h.Social.NumRows())
	}
	// determinism
	h2 := Hiring(Config{N: 100, Seed: 1})
	if !h.Letters.Equal(h2.Letters) || !h.Social.Equal(h2.Social) {
		t.Error("generation not deterministic")
	}
	h3 := Hiring(Config{N: 100, Seed: 2})
	if h.Letters.Equal(h3.Letters) {
		t.Error("different seeds should differ")
	}
}

func TestHiringSentimentSignal(t *testing.T) {
	h := Hiring(Config{N: 200, Seed: 3})
	letters := h.Letters
	// positive letters should contain more positive phrases than negative
	posHits, negHits := 0, 0
	for i := 0; i < letters.NumRows(); i++ {
		text := letters.MustColumn("letter_text").Str(i)
		sentiment := letters.MustColumn("sentiment").Str(i)
		pos := 0
		for _, p := range positivePhrases {
			if strings.Contains(text, p) {
				pos++
			}
		}
		neg := 0
		for _, p := range negativePhrases {
			if strings.Contains(text, p) {
				neg++
			}
		}
		if sentiment == "positive" && pos > neg {
			posHits++
		}
		if sentiment == "negative" && neg > pos {
			negHits++
		}
	}
	if posHits < 60 || negHits < 60 {
		t.Errorf("weak lexical signal: pos %d, neg %d", posHits, negHits)
	}
}

func TestHiringRatingsSeparateByClass(t *testing.T) {
	h := Hiring(Config{N: 300, Seed: 4})
	var posSum, negSum float64
	var posN, negN int
	ratings := h.Letters.MustColumn("employer_rating")
	sent := h.Letters.MustColumn("sentiment")
	for i := 0; i < h.Letters.NumRows(); i++ {
		if sent.Str(i) == "positive" {
			posSum += ratings.Float(i)
			posN++
		} else {
			negSum += ratings.Float(i)
			negN++
		}
	}
	if posSum/float64(posN) <= negSum/float64(negN) {
		t.Error("positive letters should have higher employer ratings")
	}
}

func TestInjectLabelErrors(t *testing.T) {
	h := Hiring(Config{N: 100, Seed: 5})
	dirty, corrupted, err := InjectLabelErrors(h.Letters, "sentiment", 0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupted) != 10 {
		t.Fatalf("corrupted = %d", len(corrupted))
	}
	flips := 0
	for i := 0; i < 100; i++ {
		orig := h.Letters.MustColumn("sentiment").Str(i)
		now := dirty.MustColumn("sentiment").Str(i)
		if orig != now {
			flips++
			if !corrupted[i] {
				t.Errorf("row %d flipped but not reported", i)
			}
		} else if corrupted[i] {
			t.Errorf("row %d reported but not flipped", i)
		}
	}
	if flips != 10 {
		t.Errorf("flips = %d", flips)
	}
	// original untouched
	if h.Letters.MustColumn("sentiment").Str(0) == "" {
		t.Error("unexpected")
	}
	if _, _, err := InjectLabelErrors(h.Letters, "letter_text", 0.1, 1); err == nil {
		t.Error("expected error for non-binary column")
	}
	if _, _, err := InjectLabelErrors(h.Letters, "sentiment", 2, 1); err == nil {
		t.Error("expected error for bad fraction")
	}
}

func TestFlipDatasetLabels(t *testing.T) {
	x := linalg.NewMatrix(10, 1)
	y := make([]int, 10)
	for i := range y {
		y[i] = i % 2
	}
	d, _ := ml.NewDataset(x, y)
	dirty, corrupted, err := FlipDatasetLabels(d, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupted) != 3 {
		t.Fatalf("corrupted = %d", len(corrupted))
	}
	for i := range y {
		if (dirty.Y[i] != d.Y[i]) != corrupted[i] {
			t.Errorf("row %d flip/report mismatch", i)
		}
	}

	// binary labels: exactly the 1 - y flip over r.Perm's first k rows,
	// with nothing else drawn, so seeded inputs stay bit-identical
	for _, seed := range []int64{1, 7, 104, 903} {
		for _, n := range []int{1, 10, 257} {
			bx := linalg.NewMatrix(n, 1)
			by := make([]int, n)
			for i := range by {
				by[i] = (i * 7 / 3) % 2
			}
			bd, _ := ml.NewDataset(bx, by)
			got, _, err := FlipDatasetLabels(bd, 0.3, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]int(nil), by...)
			r := rand.New(rand.NewSource(seed))
			for _, i := range r.Perm(n)[:int(float64(n)*0.3)] {
				want[i] = 1 - want[i]
			}
			for i := range want {
				if got.Y[i] != want[i] {
					t.Fatalf("seed %d n %d: binary flip row %d = %d, want %d", seed, n, i, got.Y[i], want[i])
				}
			}
		}
	}

	// three classes: a flipped row takes one of the other two labels,
	// and every other label is reached
	cx := linalg.NewMatrix(300, 1)
	cy := make([]int, 300)
	for i := range cy {
		cy[i] = i % 3
	}
	cd, _ := ml.NewDataset(cx, cy)
	multi, flipped, err := FlipDatasetLabels(cd, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(flipped) != 150 {
		t.Fatalf("3-class corrupted = %d, want 150", len(flipped))
	}
	var reached [3][3]bool
	for i, y := range multi.Y {
		switch {
		case y < 0 || y > 2:
			t.Fatalf("row %d: label %d outside the 3 classes", i, y)
		case (y != cy[i]) != flipped[i]:
			t.Fatalf("row %d: label %d -> %d, reported flipped %v", i, cy[i], y, flipped[i])
		}
		reached[cy[i]][y] = true
	}
	for from := range reached {
		for to := range reached[from] {
			if from != to && !reached[from][to] {
				t.Errorf("no row flipped %d -> %d", from, to)
			}
		}
	}

	cy[5] = -1
	if _, _, err := FlipDatasetLabels(cd, 0.5, 11); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Errorf("negative label: err = %v, want ErrDegenerateInput", err)
	}
}

func TestInjectMissingMechanisms(t *testing.T) {
	h := Hiring(Config{N: 100, Seed: 8})
	for _, mech := range []MissingMechanism{MissingMCAR, MissingMAR, MissingMNAR} {
		out, affected, err := InjectMissing(h.Letters, "employer_rating", 0.2, mech, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(affected) != 20 {
			t.Errorf("mech %d: affected = %d", mech, len(affected))
		}
		if out.MustColumn("employer_rating").NullCount() != 20 {
			t.Errorf("mech %d: nulls = %d", mech, out.MustColumn("employer_rating").NullCount())
		}
	}
	// MNAR removes the largest ratings
	out, affected, err := InjectMissing(h.Letters, "employer_rating", 0.1, MissingMNAR, 10)
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	minAffected := math.Inf(1)
	orig := h.Letters.MustColumn("employer_rating")
	for _, i := range affected {
		minAffected = math.Min(minAffected, orig.Float(i))
	}
	below := 0
	for i := 0; i < 100; i++ {
		if orig.Float(i) < minAffected {
			below++
		}
	}
	if below < 80 {
		t.Errorf("MNAR did not target the top values (%d below cutoff)", below)
	}
	if _, _, err := InjectMissing(h.Letters, "sentiment", 0.1, MissingMCAR, 1); err == nil {
		t.Error("expected error for non-numeric column")
	}
}

func TestInjectOutliers(t *testing.T) {
	h := Hiring(Config{N: 50, Seed: 11})
	out, affected, err := InjectOutliers(h.Letters, "employer_rating", 0.1, 100, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 5 {
		t.Fatalf("affected = %d", len(affected))
	}
	orig := h.Letters.MustColumn("employer_rating")
	now := out.MustColumn("employer_rating")
	for _, i := range affected {
		if math.Abs(now.Float(i)) < math.Abs(orig.Float(i))*50 {
			t.Errorf("row %d not an outlier: %v -> %v", i, orig.Float(i), now.Float(i))
		}
	}
	if _, _, err := InjectOutliers(h.Letters, "person_id", 0.1, 10, 1); err == nil {
		t.Error("expected error for int column")
	}
}

func TestBiasedSample(t *testing.T) {
	h := Hiring(Config{N: 200, Seed: 13})
	before := h.Demographics.MustColumn("sex")
	f := 0
	for i := 0; i < before.Len(); i++ {
		if before.Str(i) == "f" {
			f++
		}
	}
	sampled, idx, err := BiasedSample(h.Demographics, "sex", frame.Str("f"), 0.3, 14)
	if err != nil {
		t.Fatal(err)
	}
	after := sampled.MustColumn("sex")
	fAfter := 0
	for i := 0; i < after.Len(); i++ {
		if after.Str(i) == "f" {
			fAfter++
		}
	}
	if fAfter >= f {
		t.Errorf("bias did not reduce group: %d -> %d", f, fAfter)
	}
	if sampled.NumRows() != len(idx) {
		t.Error("lineage length mismatch")
	}
	// males all kept
	if sampled.NumRows()-fAfter != before.Len()-f {
		t.Error("non-target rows should be kept unconditionally")
	}
}

func TestAppendOOD(t *testing.T) {
	x := linalg.NewMatrix(20, 2)
	y := make([]int, 20)
	for i := 0; i < 20; i++ {
		x.Set(i, 0, float64(i%5))
		x.Set(i, 1, float64(i%3))
		y[i] = i % 2
	}
	d, _ := ml.NewDataset(x, y)
	out, appended := AppendOOD(d, 4, 3, 15)
	if out.Len() != 24 || len(appended) != 4 {
		t.Fatalf("out len = %d, appended = %d", out.Len(), len(appended))
	}
	// appended rows are far outside [0,4] x [0,2]
	for _, i := range appended {
		v := out.X.At(i, 0)
		if v >= -4 && v <= 8 {
			t.Errorf("OOD value %v suspiciously in-range", v)
		}
	}
	// original rows intact
	if out.X.At(0, 0) != d.X.At(0, 0) || out.Y[5] != d.Y[5] {
		t.Error("original rows modified")
	}
}

func TestSaveLoadHiringCSVRoundTrip(t *testing.T) {
	h := Hiring(Config{N: 40, Seed: 31})
	dir := t.TempDir()
	if err := SaveHiringCSV(h, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadHiringCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Letters.NumRows() != 40 || back.Jobs.NumRows() != h.Jobs.NumRows() {
		t.Errorf("round-trip shapes wrong")
	}
	// key columns survive with values intact
	if back.Letters.MustColumn("person_id").Int(0) != h.Letters.MustColumn("person_id").Int(0) {
		t.Error("person_id mismatch after round trip")
	}
	if back.Letters.MustColumn("sentiment").Str(5) != h.Letters.MustColumn("sentiment").Str(5) {
		t.Error("sentiment mismatch after round trip")
	}
	// nulls in the social twitter column survive
	origNulls := h.Social.MustColumn("twitter").NullCount()
	backNulls := back.Social.MustColumn("twitter").NullCount()
	if origNulls != backNulls {
		t.Errorf("twitter nulls %d -> %d after round trip", origNulls, backNulls)
	}
	if _, err := LoadHiringCSV(t.TempDir()); err == nil {
		t.Error("expected error for empty directory")
	}
}

func TestAppendOODDegenerate(t *testing.T) {
	empty, _ := ml.NewDataset(linalg.NewMatrix(0, 2), nil)
	out, appended := AppendOOD(empty, 3, 2, 1)
	if out.Len() != 0 || appended != nil {
		t.Error("empty dataset should pass through unchanged")
	}
	d := Hiring(Config{N: 5, Seed: 1})
	_ = d
	small, _ := ml.NewDataset(linalg.FromRows([][]float64{{1, 2}}), []int{0})
	out, appended = AppendOOD(small, 0, 2, 1)
	if out.Len() != 1 || appended != nil {
		t.Error("k=0 should pass through unchanged")
	}
}
