package encode

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"unicode"

	"nde/internal/frame"
	"nde/internal/linalg"
)

// Tokenize lowercases and splits text on non-letter/digit runes.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// HashingVectorizer maps text to a fixed-dimensional vector of token counts
// via feature hashing. It needs no fitted vocabulary, making it robust to
// out-of-vocabulary tokens; this is the library's deterministic stand-in for
// the dense sentence embeddings used in the tutorial's pipelines.
type HashingVectorizer struct {
	Dim  int // number of hash buckets (default 64)
	name string
}

// NewHashingVectorizer returns a vectorizer with the given dimensionality.
func NewHashingVectorizer(dim int) *HashingVectorizer { return &HashingVectorizer{Dim: dim} }

// Fit records the column name; hashing needs no vocabulary.
func (e *HashingVectorizer) Fit(s *frame.Series) error {
	if e.Dim <= 0 {
		e.Dim = 64
	}
	if s.Kind() != frame.KindString {
		return fmt.Errorf("encode: hashing vectorizer needs a string column, got %s", s.Kind())
	}
	e.name = s.Name()
	return nil
}

// Transform emits token counts per hash bucket; nulls become zero vectors.
func (e *HashingVectorizer) Transform(s *frame.Series) (*linalg.Matrix, error) {
	if e.name == "" {
		return nil, fmt.Errorf("encode: HashingVectorizer used before Fit")
	}
	out := linalg.NewMatrix(s.Len(), e.Dim)
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			continue
		}
		for _, tok := range Tokenize(s.Str(i)) {
			h := fnv.New32a()
			h.Write([]byte(tok))
			b := int(h.Sum32()) % e.Dim
			if b < 0 {
				b += e.Dim
			}
			out.Set(i, b, out.At(i, b)+1)
		}
	}
	return out, nil
}

// Names returns "<col>_h<i>" per bucket.
func (e *HashingVectorizer) Names() []string {
	names := make([]string, e.Dim)
	for i := range names {
		names[i] = fmt.Sprintf("%s_h%d", e.name, i)
	}
	return names
}

// TfidfVectorizer builds a vocabulary at fit time (optionally capped to the
// most frequent MaxFeatures tokens) and emits TF-IDF weights. Unknown tokens
// are ignored at transform time; nulls become zero vectors.
type TfidfVectorizer struct {
	MaxFeatures int // 0 = unlimited
	MinDF       int // minimum document frequency (default 1)

	name  string
	vocab map[string]int
	terms []string
	idf   []float64
}

// NewTfidfVectorizer returns a vectorizer capped at maxFeatures terms
// (0 = unlimited).
func NewTfidfVectorizer(maxFeatures int) *TfidfVectorizer {
	return &TfidfVectorizer{MaxFeatures: maxFeatures, MinDF: 1}
}

// Fit builds the vocabulary and inverse document frequencies.
func (e *TfidfVectorizer) Fit(s *frame.Series) error {
	if s.Kind() != frame.KindString {
		return fmt.Errorf("encode: tf-idf vectorizer needs a string column, got %s", s.Kind())
	}
	minDF := e.MinDF
	if minDF < 1 {
		minDF = 1
	}
	df := make(map[string]int)
	nDocs := 0
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			continue
		}
		nDocs++
		seen := make(map[string]bool)
		for _, tok := range Tokenize(s.Str(i)) {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	if nDocs == 0 {
		return fmt.Errorf("encode: tf-idf column %q has no documents", s.Name())
	}
	type tc struct {
		term string
		df   int
	}
	var cand []tc
	for term, d := range df {
		if d >= minDF {
			cand = append(cand, tc{term, d})
		}
	}
	sort.Slice(cand, func(a, b int) bool {
		if cand[a].df != cand[b].df {
			return cand[a].df > cand[b].df
		}
		return cand[a].term < cand[b].term
	})
	if e.MaxFeatures > 0 && len(cand) > e.MaxFeatures {
		cand = cand[:e.MaxFeatures]
	}
	sort.Slice(cand, func(a, b int) bool { return cand[a].term < cand[b].term })
	e.name = s.Name()
	e.vocab = make(map[string]int, len(cand))
	e.terms = make([]string, len(cand))
	e.idf = make([]float64, len(cand))
	for i, c := range cand {
		e.vocab[c.term] = i
		e.terms[i] = c.term
		e.idf[i] = math.Log(float64(1+nDocs)/float64(1+c.df)) + 1
	}
	return nil
}

// Transform emits L2-normalized TF-IDF rows.
func (e *TfidfVectorizer) Transform(s *frame.Series) (*linalg.Matrix, error) {
	if e.vocab == nil {
		return nil, fmt.Errorf("encode: TfidfVectorizer used before Fit")
	}
	out := linalg.NewMatrix(s.Len(), len(e.terms))
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			continue
		}
		row := out.Row(i)
		for _, tok := range Tokenize(s.Str(i)) {
			if j, ok := e.vocab[tok]; ok {
				row[j] += e.idf[j]
			}
		}
		if n := linalg.Norm2(row); n > 0 {
			linalg.Scale(1/n, row)
		}
	}
	return out, nil
}

// Names returns "<col>:<term>" per vocabulary term.
func (e *TfidfVectorizer) Names() []string {
	names := make([]string, len(e.terms))
	for i, t := range e.terms {
		names[i] = e.name + ":" + t
	}
	return names
}
