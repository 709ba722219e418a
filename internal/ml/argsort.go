package ml

import (
	"math"
	"math/bits"
	"sort"
)

const (
	// prefixBits is the width of the sort key the radix passes order:
	// the top bits of a row's distKey span, two digits of digitBits.
	prefixBits = 22
	digitBits  = prefixBits / 2
	digitMask  = 1<<digitBits - 1
	// shortRun is the longest run of equal prefixes finished by
	// insertion sort; longer runs are checked in one pass and, unless
	// their keys already ascend, take the comparator sort.
	shortRun = 16
)

// argsortScratch is the reusable working memory of argsortInto: the two
// buffers of packed (prefix, index) words the radix passes move between,
// their digit histograms, and the (key, index) pairs of a long run. One
// per worker; the buffers grow to the longest row it has sorted.
type argsortScratch struct {
	w0, w1 []uint64
	counts [2][1 << digitBits]uint32
	run    keyIDs
}

// distKey maps a distance onto a uint64 whose unsigned order is the
// float order, so the radix passes compare floats as integers. -0 is
// folded onto +0 first (the comparator treats them as equal), then a
// positive value gets its sign bit set and a negative one is
// complemented. NaN has no place in the (distance, index) order and is
// out of contract: NewNeighborIndex rejects non-finite features, so no
// distance it sorts is NaN.
func distKey(d float64) uint64 {
	b := math.Float64bits(d)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// argsortInto writes into idx (len(d) entries) the indices of d sorted by
// (distance, index): the neighbor total order every ordering in the
// package uses. len(d) must not exceed math.MaxInt32.
//
// One pass finds the row's smallest and largest distKey. A second packs
// each index i under its prefix p = (key − min) >> s, the top prefixBits
// bits of the row's key span, as the word p<<32 | i, and counts both
// digits of p. Two stable LSD passes then order the words by p; a pass
// whose digit is the same for every word is skipped. Words start in
// index order, so equal prefixes keep ascending index order. The last
// pass writes the ids out, and each run of equal prefix it meets (only
// possible when s > 0; with s = 0 the prefix is the whole key) is
// finished by the full key, stably: insertion sort up to shortRun
// entries; above that, one pass when its keys already ascend (exact
// ties), else the (key, index) comparator, so a run of m near-equal
// distinct distances costs O(m log m). The result is the comparator's
// permutation by construction. O(len(d)) time unless distinct keys share
// a prefix in long runs; s supplies the scratch.
func argsortInto(d []float64, idx []int32, s *argsortScratch) {
	n := len(d)
	if n == 0 {
		return
	}
	lo, hi := distKey(d[0]), distKey(d[0])
	for _, v := range d {
		k := distKey(v)
		lo = min(lo, k)
		hi = max(hi, k)
	}
	shift := max(bits.Len64(hi-lo)-prefixBits, 0)
	if cap(s.w0) < n {
		s.w0, s.w1 = make([]uint64, n), make([]uint64, n)
	}
	c := &s.counts
	*c = [2][1 << digitBits]uint32{}
	src, dst := s.w0[:n], s.w1[:n]
	for i, v := range d {
		p := (distKey(v) - lo) >> shift
		src[i] = p<<32 | uint64(i)
		c[0][p&digitMask]++
		c[1][p>>digitBits]++
	}
	for pass := range c {
		sh := 32 + digitBits*uint(pass)
		cnt := &c[pass]
		if int(cnt[src[0]>>sh&digitMask]) == n {
			continue
		}
		var sum uint32
		for b, k := range cnt {
			cnt[b] = sum
			sum += k
		}
		for _, w := range src {
			b := w >> sh & digitMask
			dst[cnt[b]] = w
			cnt[b]++
		}
		src, dst = dst, src
	}
	if shift == 0 {
		for j, w := range src {
			idx[j] = int32(w)
		}
		return
	}
	start := 0
	for j, w := range src {
		idx[j] = int32(w)
		if w>>32 != src[start]>>32 {
			if j-start > 1 {
				s.finishRun(d, idx[start:j])
			}
			start = j
		}
	}
	if n-start > 1 {
		s.finishRun(d, idx[start:])
	}
}

// finishRun sorts ids — one run of equal prefix, in ascending index
// order — by (distKey, index). Equal keys keep their index order, so
// insertion sort finishes a short run stably. A longer run whose keys
// already ascend (a run of exact ties: duplicate rows, categorical
// features) is left as it is after one pass; any other is sorted on the
// (key, index) pairs.
func (s *argsortScratch) finishRun(d []float64, ids []int32) {
	if len(ids) <= shortRun {
		var keys [shortRun]uint64
		for t, id := range ids {
			k := distKey(d[id])
			u := t
			for ; u > 0 && keys[u-1] > k; u-- {
				keys[u], ids[u] = keys[u-1], ids[u-1]
			}
			keys[u], ids[u] = k, id
		}
		return
	}
	if keysAscend(d, ids) {
		return
	}
	run := s.run[:0]
	for _, id := range ids {
		run = append(run, keyID{key: distKey(d[id]), id: id})
	}
	sort.Sort(run)
	for t, r := range run {
		ids[t] = r.id
	}
	s.run = run
}

// keysAscend reports whether the distKeys of ids never decrease.
func keysAscend(d []float64, ids []int32) bool {
	prev := distKey(d[ids[0]])
	for _, id := range ids[1:] {
		k := distKey(d[id])
		if k < prev {
			return false
		}
		prev = k
	}
	return true
}

// keyID is one entry of a long run: its distKey and training index.
type keyID struct {
	key uint64
	id  int32
}

// keyIDs orders a long run by (key, index).
type keyIDs []keyID

func (r keyIDs) Len() int { return len(r) }
func (r keyIDs) Less(a, b int) bool {
	if r[a].key != r[b].key {
		return r[a].key < r[b].key
	}
	return r[a].id < r[b].id
}
func (r keyIDs) Swap(a, b int) { r[a], r[b] = r[b], r[a] }
