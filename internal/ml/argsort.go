package ml

import "math"

// argsortScratch is the reusable working memory of argsortInto: the
// second index buffer the radix passes scatter into. One per worker; it
// grows to the longest row it has sorted.
type argsortScratch struct {
	idx2 []int
}

// distKey maps a distance onto a uint64 whose unsigned order is the
// float order, so the radix passes compare floats as integers. -0 is
// folded onto +0 first (the comparator treats them as equal), then a
// positive value gets its sign bit set and a negative one is
// complemented. NaN has no place in the (distance, index) order and is
// out of contract: NewNeighborIndex and AppendRows reject non-finite
// features, so no distance they sort is NaN.
func distKey(d float64) uint64 {
	b := math.Float64bits(d)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// argsortInto writes into idx (len(d) entries) the indices of d sorted by
// (distance, index): the neighbor total order every ordering in the
// package uses. It is a stable LSD radix sort over distKey, one byte a
// pass, starting from the identity permutation, so equal distances keep
// ascending index order and the result is the comparator's permutation
// by construction. Keys are recomputed from d in every pass rather than
// carried along, so a pass moves indices only; a pass whose byte is the
// same for every key moves nothing and is skipped. O(len(d)) time; s
// supplies the one scratch buffer.
func argsortInto(d []float64, idx []int, s *argsortScratch) {
	n := len(d)
	if n == 0 {
		return
	}
	if cap(s.idx2) < n {
		s.idx2 = make([]int, n)
	}
	var counts [8][256]int
	for i, v := range d {
		k := distKey(v)
		idx[i] = i
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := idx, s.idx2[:n]
	for pass := range counts {
		shift := 8 * uint(pass)
		c := &counts[pass]
		if c[byte(distKey(d[0])>>shift)] == n {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, i := range src {
			b := byte(distKey(d[i]) >> shift)
			dst[c[b]] = i
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}
