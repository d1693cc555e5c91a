package core

import (
	"math"
	"slices"
	"sort"
)

// radixSortMin is the length below which sortAsc defers to slices.Sort:
// under it the eight histogram/offset tables cost more than the
// comparison sort they would replace.
const radixSortMin = 128

// radixScratch is one worker's reusable state for sortAsc and
// sortPairsAsc: the ping-pong buffers and the per-byte histograms of all
// eight LSD passes, counted in a single sweep.
type radixScratch struct {
	tmp    []float64
	tmpIdx []int
	cnt    [8][256]uint32
}

// sortAsc sorts cost ascending with an LSD radix sort on the float64 bit
// patterns. For non-negative, finite inputs — which walk costs always
// are: a non-negative arrival weight times a non-negative distance — the
// IEEE-754 ordering coincides with the unsigned ordering of the bits, so
// the result is the ascending value sequence bit for bit, exactly what
// slices.Sort produces (equal values have equal bits, making the sorted
// array unique). A single OR over the bit patterns detects any sign bit,
// infinity or NaN up front and falls back to slices.Sort, keeping the
// fast path honest rather than subtly misordered.
//
// Passes whose byte is constant across the whole slice — the common case
// for the high exponent bytes of same-magnitude costs — are skipped, so
// a typical sort runs the counting sweep plus two to four scatter
// passes: O(n) with a small constant, against the comparison sort's
// O(n log n) with interface-free but still branchy comparisons.
func (r *radixScratch) sortAsc(cost []float64) {
	n := len(cost)
	if n < radixSortMin {
		slices.Sort(cost)
		return
	}
	r.cnt = [8][256]uint32{}
	var all uint64
	for _, c := range cost {
		b := math.Float64bits(c)
		all |= b
		r.cnt[0][b&0xff]++
		r.cnt[1][(b>>8)&0xff]++
		r.cnt[2][(b>>16)&0xff]++
		r.cnt[3][(b>>24)&0xff]++
		r.cnt[4][(b>>32)&0xff]++
		r.cnt[5][(b>>40)&0xff]++
		r.cnt[6][(b>>48)&0xff]++
		r.cnt[7][b>>56]++
	}
	// 0x7FF0... is the smallest exponent-all-ones pattern: the OR of the
	// inputs reaches it only if some input is negative (sign bit),
	// infinite or NaN — or as a harmless false positive when distinct
	// finite exponents OR together, which merely costs the fallback.
	if all >= 0x7FF0000000000000 {
		slices.Sort(cost)
		return
	}
	if cap(r.tmp) < n {
		r.tmp = make([]float64, n)
	}
	src, dst := cost, r.tmp[:n]
	for p := 0; p < 8; p++ {
		shift := uint(8 * p)
		digit0 := byte(math.Float64bits(src[0]) >> shift)
		if r.cnt[p][digit0] == uint32(n) {
			// Every element shares this byte (the multiset of bytes is
			// permutation-invariant, so testing any one element decides):
			// the pass is the identity.
			continue
		}
		var off [256]uint32
		var sum uint32
		for v := 0; v < 256; v++ {
			off[v] = sum
			sum += r.cnt[p][v]
		}
		for _, c := range src {
			d := byte(math.Float64bits(c) >> shift)
			dst[off[d]] = c
			off[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &cost[0] {
		copy(cost, src)
	}
}

// sortPairsAsc sorts sc's (idx, cost) pairs by cost ascending, exact
// cost ties by ascending idx — offlineScratch.Less's total order. LSD
// radix passes are stable and the caller loads clients in ascending
// index order, so ties fall out in index order with no
// comparisons at all; the same bit-pattern screen as sortAsc routes
// negative, infinite or NaN costs (impossible for walk costs) to the
// comparison sort instead.
func (r *radixScratch) sortPairsAsc(sc *offlineScratch) {
	n := len(sc.cost)
	if n < radixSortMin {
		sort.Sort(sc)
		return
	}
	r.cnt = [8][256]uint32{}
	var all uint64
	for _, c := range sc.cost {
		b := math.Float64bits(c)
		all |= b
		r.cnt[0][b&0xff]++
		r.cnt[1][(b>>8)&0xff]++
		r.cnt[2][(b>>16)&0xff]++
		r.cnt[3][(b>>24)&0xff]++
		r.cnt[4][(b>>32)&0xff]++
		r.cnt[5][(b>>40)&0xff]++
		r.cnt[6][(b>>48)&0xff]++
		r.cnt[7][b>>56]++
	}
	if all >= 0x7FF0000000000000 {
		sort.Sort(sc)
		return
	}
	if cap(r.tmp) < n {
		r.tmp = make([]float64, n)
	}
	if cap(r.tmpIdx) < n {
		r.tmpIdx = make([]int, n)
	}
	src, dst := sc.cost, r.tmp[:n]
	srcIdx, dstIdx := sc.idx, r.tmpIdx[:n]
	for p := 0; p < 8; p++ {
		shift := uint(8 * p)
		digit0 := byte(math.Float64bits(src[0]) >> shift)
		if r.cnt[p][digit0] == uint32(n) {
			continue
		}
		var off [256]uint32
		var sum uint32
		for v := 0; v < 256; v++ {
			off[v] = sum
			sum += r.cnt[p][v]
		}
		for k, c := range src {
			d := byte(math.Float64bits(c) >> shift)
			o := off[d]
			dst[o] = c
			dstIdx[o] = srcIdx[k]
			off[d] = o + 1
		}
		src, dst = dst, src
		srcIdx, dstIdx = dstIdx, srcIdx
	}
	if &src[0] != &sc.cost[0] {
		copy(sc.cost, src)
		copy(sc.idx, srcIdx)
	}
}
