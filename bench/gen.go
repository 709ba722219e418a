package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"nde/internal/datagen"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/serve"
)

// Inputs are 32-dim Gaussian mixtures with 32 centres and parity labels,
// the generator BenchmarkIncremental uses; label errors come from
// datagen.FlipDatasetLabels, the paper's own error taxonomy.
const (
	genDim     = 32
	genCenters = 32
)

// split is one generated dataset: train labels partly flipped, truth the
// clean train labels.
type split struct {
	train, valid, test *ml.Dataset
	truth              []int
}

// genSplit draws one dataset from its own mixture. Every draw depends on
// seed alone, so one dataset can be regenerated without the others.
func genSplit(seed int64, n, nValid, nTest int, flip float64) (*split, error) {
	r := rand.New(rand.NewSource(seed))
	ctr := linalg.NewMatrix(genCenters, genDim)
	for i := range ctr.Data {
		ctr.Data[i] = r.NormFloat64() * 8
	}
	draw := func(rows int) (*ml.Dataset, error) {
		x := linalg.NewMatrix(rows, genDim)
		y := make([]int, rows)
		for i := 0; i < rows; i++ {
			c := r.Intn(genCenters)
			row := x.Row(i)
			for j := range row {
				row[j] = ctr.At(c, j) + r.NormFloat64()
			}
			y[i] = c % 2
		}
		return ml.NewDataset(x, y)
	}
	clean, err := draw(n)
	if err != nil {
		return nil, err
	}
	s := &split{}
	if s.valid, err = draw(nValid); err != nil {
		return nil, err
	}
	if nTest > 0 {
		if s.test, err = draw(nTest); err != nil {
			return nil, err
		}
	}
	if s.train, _, err = datagen.FlipDatasetLabels(clean, flip, r.Int63()); err != nil {
		return nil, err
	}
	s.truth = clean.Y
	return s, nil
}

// registerBody encodes the POST /v1/datasets request for s. The test
// split and truth labels are sent only when the workload cleans.
func (s *split) registerBody(cleaning bool) ([]byte, error) {
	req := serve.RegisterRequest{Train: matrixSpec(s.train), Valid: matrixSpec(s.valid)}
	if cleaning {
		req.Test, req.Truth = matrixSpec(s.test), s.truth
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding register request: %w", err)
	}
	return b, nil
}

// matrixSpec is the inline-matrix wire form of d; rows alias d's storage.
func matrixSpec(d *ml.Dataset) *serve.MatrixSpec {
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Row(i)
	}
	return &serve.MatrixSpec{X: rows, Y: d.Y}
}

// subSeed derives the seed of item i of a workload's input stream.
func subSeed(seed int64, workload string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, i)
	return int64(h.Sum64() >> 1)
}

// hashDataset feeds d's features and labels into h.
func hashDataset(h hash.Hash64, d *ml.Dataset) {
	var b [8]byte
	for _, v := range d.X.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, y := range d.Y {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(y)))
		h.Write(b[:])
	}
}

// hashBytes is the FNV-1a hash of b.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// bitsEqual reports whether two float vectors are Float64bits-identical.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
