package xrand

import (
	"math"
	"math/bits"
	"slices"
)

// Subset draws uniform k-subsets of [0, n) and keeps its working
// memory between draws, so a sampler that draws repeatedly allocates
// only until its buffers reach the largest n it has seen. Between
// draws the bitset is all zero.
//
// The zero value is ready to use. A Subset serves one goroutine at a
// time, and the slice a draw returns aliases it: it stays valid only
// until the next draw.
type Subset struct {
	marked []uint64
	idx    []int32
	out    []int
}

// Draw returns k distinct integers drawn uniformly from [0, n), in
// ascending order. It makes the same generator calls in the same
// order as SampleInts always has (SampleInts is one call of a fresh
// Subset), so a seed selects the same set. It panics if k > n, if
// either is negative, or if n exceeds math.MaxInt32 (the index range
// of every matrix and graph in this repository); k == 0 returns nil.
//
// For small k relative to n it uses Floyd's algorithm, checking
// duplicates in the bitset and sorting the k values; otherwise it
// uses a partial Fisher-Yates over an identity permutation of
// int32 positions, whose chosen prefix is marked in the bitset and
// emitted by one ascending scan.
func (s *Subset) Draw(r *Rand, n, k int) []int {
	if k < 0 || n < 0 || k > n || n > math.MaxInt32 {
		panic("xrand: subset draw with invalid n, k")
	}
	if k == 0 {
		return nil
	}
	words := (n + 63) >> 6
	if len(s.marked) < words {
		s.marked = make([]uint64, words)
	}
	marked := s.marked
	if cap(s.out) < k {
		s.out = make([]int, 0, k)
	}
	out := s.out[:0]
	if k*8 < n {
		// Floyd's subset sampling.
		for j := n - k; j < n; j++ {
			t := r.Intn(j + 1)
			if marked[t>>6]&(1<<(uint(t)&63)) != 0 {
				t = j
			}
			marked[t>>6] |= 1 << (uint(t) & 63)
			out = append(out, t)
		}
		for _, v := range out {
			marked[v>>6] = 0
		}
		slices.Sort(out)
		s.out = out
		return out
	}
	// The permutation is rewritten in full rather than restored at the
	// positions the shuffle touched: this path runs only for n <= 8k,
	// and a sequential fill of a pooled buffer that other work has
	// pushed out of cache costs less than the restore's random writes.
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	}
	idx := s.idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	for _, v := range idx[:k] {
		marked[v>>6] |= 1 << (uint32(v) & 63)
	}
	for w, word := range marked[:words] {
		if word == 0 {
			continue
		}
		marked[w] = 0
		for word != 0 {
			out = append(out, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	s.out = out
	return out
}

// SampleInts returns k distinct integers drawn uniformly from [0, n),
// in ascending order, in a slice the caller owns. It panics if k > n
// or either is negative. A caller that draws repeatedly should keep a
// Subset instead, which reuses its buffers.
func (r *Rand) SampleInts(n, k int) []int {
	return new(Subset).Draw(r, n, k)
}
