package sparse

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

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
	rows := r.SampleInts(a.Rows, sampleRows)
	cols := r.SampleInts(a.Cols, sampleCols)
	colMap := make([]int32, a.Cols)
	for i := range colMap {
		colMap[i] = -1
	}
	for newIdx, c := range cols {
		colMap[c] = int32(newIdx)
	}
	return extractRows(a, rows, colMap, sampleCols), nil
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
	rows := make([]int, 0, rHi-rowOff)
	for i := rowOff; i < rHi; i++ {
		rows = append(rows, i)
	}
	colMap := make([]int32, a.Cols)
	for i := range colMap {
		colMap[i] = -1
	}
	for j := colOff; j < cHi; j++ {
		colMap[j] = int32(j - colOff)
	}
	return extractRows(a, rows, colMap, cHi-colOff), nil
}

// extractRows builds the submatrix over the given (sorted) original row
// indices, keeping entries whose colMap is >= 0 and remapping them.
func extractRows(a *CSR, rows []int, colMap []int32, outCols int) *CSR {
	out := &CSR{
		Rows:   len(rows),
		Cols:   outCols,
		RowPtr: make([]int64, len(rows)+1),
	}
	hasVals := a.Vals != nil
	var sorter rowSorter
	for outRow, i := range rows {
		aCols, aVals := a.Row(i)
		for k, c := range aCols {
			nc := colMap[c]
			if nc < 0 {
				continue
			}
			out.ColIdx = append(out.ColIdx, nc)
			if hasVals {
				out.Vals = append(out.Vals, aVals[k])
			}
		}
		// Entries within a row keep their relative order, but the
		// mapped column ids need not be monotone; sort the segment
		// (a no-op scan when colMap is monotone, as UniformSubmatrix's
		// and BlockSubmatrix's are).
		lo := out.RowPtr[outRow]
		hi := int64(len(out.ColIdx))
		sorter.sortRow(out.ColIdx, out.Vals, lo, hi)
		out.RowPtr[outRow+1] = hi
	}
	return out
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
	rows := r.SampleInts(a.Rows, sr)
	out := &CSR{Rows: sr, Cols: sr, RowPtr: make([]int64, sr+1)}
	hasVals := a.Vals != nil
	seen := make(map[int32]struct{}, 64)
	var sorter rowSorter
	for outRow, i := range rows {
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
		for c := range seen {
			delete(seen, c)
		}
		// Choose `keep` source entries uniformly from the row, then
		// map each kept column uniformly into [0, sr), resolving
		// collisions by rehashing (collisions are rare for sr >> keep).
		for _, k := range r.SampleInts(d, keep) {
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
			out.ColIdx = append(out.ColIdx, nc)
			if hasVals {
				out.Vals = append(out.Vals, aVals[k])
			}
		}
		lo := out.RowPtr[outRow]
		hi := int64(len(out.ColIdx))
		sorter.sortRow(out.ColIdx, out.Vals, lo, hi)
		out.RowPtr[outRow+1] = hi
	}
	return out, nil
}
