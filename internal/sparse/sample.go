package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/xrand"
)

// sampleScratch is the reusable working memory of the samplers: the
// subset sampler behind every draw, a copy of the sampled row ids
// that outlives the next draw, the kept-column set, and the
// scale-free sampler's per-row collision set and output buffers. A
// sample's own size bounds everything a call allocates; the pooled
// buffers grow to the largest input sampled and are then reused.
type sampleScratch struct {
	sub    xrand.Subset
	rows   []int
	cols   colSet
	seen   map[int32]struct{}
	colIdx []int32
	vals   []float64
}

// samplePool recycles sample scratches; each concurrent sample checks
// one out for the duration of the call.
var samplePool = sync.Pool{New: func() any { return new(sampleScratch) }}

// colSet is a set of kept columns with a constant-time rank: bit c of
// bits marks column c, and below[w] counts the kept columns in the
// words before w. A kept column's compacted id is its rank, so the
// mapping is monotone.
type colSet struct {
	bits  []uint64
	below []int32
}

// reset empties the set and sizes it for columns [0, n).
func (cs *colSet) reset(n int) {
	words := (n + 63) >> 6
	if cap(cs.bits) < words {
		cs.bits = make([]uint64, words)
		cs.below = make([]int32, words)
	}
	cs.bits, cs.below = cs.bits[:words], cs.below[:words]
	clear(cs.bits)
}

func (cs *colSet) add(c int) { cs.bits[c>>6] |= 1 << (uint(c) & 63) }

// rank fills below; call it after the last add.
func (cs *colSet) rank() {
	var n int32
	for w, word := range cs.bits {
		cs.below[w] = n
		n += int32(bits.OnesCount64(word))
	}
}

// index returns the compacted id of column c, or -1 if c is not kept.
func (cs *colSet) index(c int32) int32 {
	w, bit := c>>6, uint64(1)<<(uint32(c)&63)
	word := cs.bits[w]
	if word&bit == 0 {
		return -1
	}
	return cs.below[w] + int32(bits.OnesCount64(word&(bit-1)))
}

// UniformSubmatrix returns the sampleRows × sampleCols submatrix of A
// induced by sampleRows row indices and sampleCols column indices drawn
// uniformly at random without replacement, with column indices
// compacted to [0, sampleCols). This is the Sample step of the paper's
// Section IV: "choose a submatrix A' of size n/k × n/k from matrix A
// uniformly at random", which preserves the sparsity structure of A in
// expectation (each entry survives with the same probability).
func UniformSubmatrix(r *xrand.Rand, a *CSR, sampleRows, sampleCols int) (*CSR, error) {
	if sampleRows <= 0 || sampleCols <= 0 {
		return nil, fmt.Errorf("sparse: UniformSubmatrix with %dx%d sample", sampleRows, sampleCols)
	}
	if sampleRows > a.Rows {
		sampleRows = a.Rows
	}
	if sampleCols > a.Cols {
		sampleCols = a.Cols
	}
	s := samplePool.Get().(*sampleScratch)
	defer samplePool.Put(s)
	s.rows = append(s.rows[:0], s.sub.Draw(r, a.Rows, sampleRows)...)
	s.cols.reset(a.Cols)
	for _, c := range s.sub.Draw(r, a.Cols, sampleCols) {
		s.cols.add(c)
	}
	s.cols.rank()
	return submatrix(a, s, sampleCols), nil
}

// BlockSubmatrix returns the predetermined size×size contiguous block
// of A whose top-left corner is (rowOff, colOff), with out-of-range
// parts clipped. Fig. 7 of the paper uses four such predetermined
// blocks to demonstrate that randomness is essential: deterministic
// blocks inherit local structure (e.g. the dense leading block of a
// FEM matrix) and give biased threshold estimates.
func BlockSubmatrix(a *CSR, rowOff, colOff, size int) (*CSR, error) {
	if size <= 0 {
		return nil, fmt.Errorf("sparse: BlockSubmatrix with size %d", size)
	}
	if rowOff < 0 || colOff < 0 || rowOff >= a.Rows || colOff >= a.Cols {
		return nil, fmt.Errorf("sparse: BlockSubmatrix offset (%d,%d) outside %dx%d",
			rowOff, colOff, a.Rows, a.Cols)
	}
	rHi := rowOff + size
	if rHi > a.Rows {
		rHi = a.Rows
	}
	cHi := colOff + size
	if cHi > a.Cols {
		cHi = a.Cols
	}
	s := samplePool.Get().(*sampleScratch)
	defer samplePool.Put(s)
	s.rows = s.rows[:0]
	for i := rowOff; i < rHi; i++ {
		s.rows = append(s.rows, i)
	}
	s.cols.reset(a.Cols)
	for j := colOff; j < cHi; j++ {
		s.cols.add(j)
	}
	s.cols.rank()
	return submatrix(a, s, cHi-colOff), nil
}

// submatrix builds the submatrix of a over the ascending row ids in
// s.rows, keeping the entries whose column is in s.cols and compacting
// each to its rank. a's rows are sorted (Validate requires it) and the
// rank is monotone, so every output row comes out sorted without a
// sort.
func submatrix(a *CSR, s *sampleScratch, outCols int) *CSR {
	out := &CSR{
		Rows:   len(s.rows),
		Cols:   outCols,
		RowPtr: make([]int64, len(s.rows)+1),
	}
	hasVals := a.Vals != nil
	cols := s.cols // a local copy: the appends below cannot alias it
	colIdx, vals := s.colIdx[:0], s.vals[:0]
	for outRow, i := range s.rows {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k, c := range a.ColIdx[lo:hi] {
			nc := cols.index(c)
			if nc < 0 {
				continue
			}
			colIdx = append(colIdx, nc)
			if hasVals {
				vals = append(vals, a.Vals[lo+int64(k)])
			}
		}
		out.RowPtr[outRow+1] = int64(len(colIdx))
	}
	s.emit(out, colIdx, vals, hasVals)
	return out
}

// emit keeps the grown entry buffers in s for the next sample and
// gives out exact-size copies of them, leaving ColIdx and Vals nil
// when no entry survived.
func (s *sampleScratch) emit(out *CSR, colIdx []int32, vals []float64, hasVals bool) {
	s.colIdx = colIdx
	if hasVals {
		s.vals = vals
	}
	if len(colIdx) > 0 {
		out.ColIdx = slices.Clone(colIdx)
		if hasVals {
			out.Vals = slices.Clone(vals)
		}
	}
}

// ScaleFreeSampleConfig controls ScaleFreeRowSample.
type ScaleFreeSampleConfig struct {
	// SampleRows is the number of rows to draw; the paper uses √n.
	SampleRows int
	// DegreeExponent controls how a row of degree d is thinned: the
	// sampled row keeps ≈ d^DegreeExponent entries. The paper's
	// offline best-fit extrapolation t_A = t_s² corresponds to 0.5
	// (the default): a full-input density threshold t_A appears in
	// the sample at t_s = √t_A.
	DegreeExponent float64
}

// ScaleFreeRowSample builds the miniature A' of the paper's Section V:
// sample SampleRows rows of A uniformly at random; from each chosen row
// of degree d keep ≈ d^DegreeExponent entries sampled uniformly from
// that row, and transform the kept column indices uniformly into
// [0, SampleRows) so A' is square. The resulting sample has a sparsity
// pattern "similar to that of A on expectation" with row densities
// compressed through the power DegreeExponent, which is what makes the
// extrapolation rule t_A = t_s^(1/DegreeExponent) exact on expectation.
func ScaleFreeRowSample(r *xrand.Rand, a *CSR, cfg ScaleFreeSampleConfig) (*CSR, error) {
	sr := cfg.SampleRows
	if sr <= 0 {
		sr = int(math.Sqrt(float64(a.Rows)))
	}
	if sr > a.Rows {
		sr = a.Rows
	}
	if sr < 1 {
		sr = 1
	}
	exp := cfg.DegreeExponent
	if exp == 0 {
		exp = 0.5
	}
	if exp < 0 || exp > 1 {
		return nil, fmt.Errorf("sparse: ScaleFreeRowSample degree exponent %v outside [0,1]", exp)
	}
	s := samplePool.Get().(*sampleScratch)
	defer samplePool.Put(s)
	s.rows = append(s.rows[:0], s.sub.Draw(r, a.Rows, sr)...)
	if s.seen == nil {
		s.seen = make(map[int32]struct{}, 64)
	}
	seen := s.seen
	hasVals := a.Vals != nil
	colIdx := s.colIdx[:0]
	var vals []float64
	if hasVals {
		vals = s.vals[:0]
	}
	out := &CSR{Rows: sr, Cols: sr, RowPtr: make([]int64, sr+1)}
	var sorter rowSorter
	for outRow, i := range s.rows {
		aCols, aVals := a.Row(i)
		d := len(aCols)
		keep := 0
		if d > 0 {
			keep = int(math.Round(math.Pow(float64(d), exp)))
			if keep < 1 {
				keep = 1
			}
			if keep > sr {
				keep = sr
			}
			if keep > d {
				keep = d
			}
		}
		clear(seen)
		// Choose `keep` source entries uniformly from the row, then
		// map each kept column uniformly into [0, sr), resolving
		// collisions by rehashing (collisions are rare for sr >> keep).
		for _, k := range s.sub.Draw(r, d, keep) {
			nc := int32(r.Intn(sr))
			for tries := 0; tries < 4; tries++ {
				if _, dup := seen[nc]; !dup {
					break
				}
				nc = int32(r.Intn(sr))
			}
			if _, dup := seen[nc]; dup {
				continue
			}
			seen[nc] = struct{}{}
			colIdx = append(colIdx, nc)
			if hasVals {
				vals = append(vals, aVals[k])
			}
		}
		lo := out.RowPtr[outRow]
		hi := int64(len(colIdx))
		sorter.sortRow(colIdx, vals, lo, hi)
		out.RowPtr[outRow+1] = hi
	}
	s.emit(out, colIdx, vals, hasVals)
	return out, nil
}
