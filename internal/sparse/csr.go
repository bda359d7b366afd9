// Package sparse implements compressed sparse row (CSR) matrices, the
// Gustavson row-row sparse matrix-matrix product (SpMM), the work-load
// vector used by the paper's Algorithm 2 to translate a split percentage
// into a row index, synthetic matrix generators for every structural
// class in the paper's Table II, and the random / predetermined samplers
// used by the Sample step of the partitioning framework.
package sparse

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/mmio"
)

// CSR is a sparse matrix in compressed sparse row format. RowPtr has
// length Rows+1; the column indices of row i are
// ColIdx[RowPtr[i]:RowPtr[i+1]] and are sorted in ascending order with
// no duplicates. Vals is parallel to ColIdx and may be nil for pattern
// matrices, in which case every stored value is taken to be 1.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Vals       []float64

	// idx caches the lazily built structural index (see Index). It is
	// excluded from Equal/Clone/Validate: it carries no information
	// beyond what RowPtr already encodes, just a faster layout.
	idx atomic.Pointer[Index]
}

// Index is an immutable precomputed structural index of a CSR matrix,
// built once per matrix and shared by every kernel that iterates its
// rows. RowLen packs the per-row nonzero counts into int32s so that
// gather-heavy passes (the load-vector kernel reads one row length per
// stored entry of A) touch 4 bytes per lookup instead of two 8-byte
// RowPtr loads. Work prefix sums over a concrete A×B pairing live with
// that pairing's profile (hetspmm/hetscale), which feeds them to
// SplitRowByWorkPrefix; the per-matrix index holds only pair-
// independent structure.
type Index struct {
	// RowLen[i] is the number of stored entries in row i.
	RowLen []int32
}

// Index returns the matrix's structural index, building it on first
// use. The index is immutable and safe for concurrent use; concurrent
// first calls may build duplicate candidates, but all callers observe
// the same published copy. Callers that mutate the matrix's structure
// in place (none of the kernels here do — CSR values are treated as
// immutable once built) must not use Index.
func (m *CSR) Index() *Index {
	if idx := m.idx.Load(); idx != nil {
		return idx
	}
	rowLen := make([]int32, m.Rows)
	for i := range rowLen {
		rowLen[i] = int32(m.RowPtr[i+1] - m.RowPtr[i])
	}
	m.idx.CompareAndSwap(nil, &Index{RowLen: rowLen})
	return m.idx.Load()
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Row returns the column indices and values of row i. The returned
// slices alias the matrix; callers must not modify them. vals is nil
// for pattern matrices.
func (m *CSR) Row(i int) (cols []int32, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols = m.ColIdx[lo:hi]
	if m.Vals != nil {
		vals = m.Vals[lo:hi]
	}
	return cols, vals
}

// At returns the value at (i, j), or 0 if no entry is stored. Pattern
// matrices return 1 for stored entries.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k == len(cols) || cols[k] != int32(j) {
		return 0
	}
	if vals == nil {
		return 1
	}
	return vals[k]
}

// Validate checks the structural invariants of the matrix: monotone row
// pointers, in-range sorted duplicate-free column indices, and value
// slice length. It is used by tests and by the generators' own
// self-checks.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.Rows] != int64(len(m.ColIdx)) {
		return fmt.Errorf("sparse: RowPtr[last] = %d, want %d", m.RowPtr[m.Rows], len(m.ColIdx))
	}
	if m.Vals != nil && len(m.Vals) != len(m.ColIdx) {
		return fmt.Errorf("sparse: %d values for %d column indices", len(m.Vals), len(m.ColIdx))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: row %d has negative extent", i)
		}
		var prev int32 = -1
		for k := lo; k < hi; k++ {
			c := m.ColIdx[k]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: row %d has column %d outside [0,%d)", i, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at %d", i, c)
			}
			prev = c
		}
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
	}
	if m.Vals != nil {
		c.Vals = append([]float64(nil), m.Vals...)
	}
	return c
}

// RowNNZCounts returns a slice with the number of nonzeros in each row;
// this is the vector V_B from the paper's Algorithm 2.
func (m *CSR) RowNNZCounts() []int {
	out := make([]int, m.Rows)
	for i := range out {
		out[i] = m.RowNNZ(i)
	}
	return out
}

// coo is an internal triplet accumulator used by builders and samplers.
type coo struct {
	rows, cols int
	r, c       []int32
	v          []float64 // nil for pattern
}

// FromTriplets builds a CSR matrix from 0-based coordinate data.
// Duplicate entries are summed (or collapsed for pattern input).
// vals may be nil for a pattern matrix. The CSR never shares storage
// with the inputs.
func FromTriplets(rows, cols int, rowIdx, colIdx []int32, vals []float64) (*CSR, error) {
	if err := checkTriplets(rows, cols, rowIdx, colIdx, vals); err != nil {
		return nil, err
	}
	return fromTripletsUnchecked(rows, cols, rowIdx, colIdx, vals, false), nil
}

func checkTriplets(rows, cols int, rowIdx, colIdx []int32, vals []float64) error {
	if len(rowIdx) != len(colIdx) {
		return fmt.Errorf("sparse: %d row indices, %d col indices", len(rowIdx), len(colIdx))
	}
	if vals != nil && len(vals) != len(rowIdx) {
		return fmt.Errorf("sparse: %d values for %d triplets", len(vals), len(rowIdx))
	}
	for k := range rowIdx {
		if rowIdx[k] < 0 || int(rowIdx[k]) >= rows || colIdx[k] < 0 || int(colIdx[k]) >= cols {
			return fmt.Errorf("sparse: triplet %d at (%d,%d) outside %dx%d",
				k, rowIdx[k], colIdx[k], rows, cols)
		}
	}
	return nil
}

// fromTripletsUnchecked is the common builder core: two-pass counting
// sort by row, then per-row sort by column with duplicate merging.
// Triplets that already arrive row-major with strictly ascending
// columns in each row, as mmio.Write and most writers emit them, are
// the CSR arrays already: they are copied as they are, or with adopt
// the CSR takes colIdx and vals themselves, which gives the same
// matrix as sorting them would.
func fromTripletsUnchecked(rows, cols int, rowIdx, colIdx []int32, vals []float64, adopt bool) *CSR {
	nnz := len(rowIdx)
	rowPtr := make([]int64, rows+1)
	sorted := true
	for k, r := range rowIdx {
		rowPtr[r+1]++
		if sorted && k > 0 && (r < rowIdx[k-1] || r == rowIdx[k-1] && colIdx[k] <= colIdx[k-1]) {
			sorted = false
		}
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	if sorted && adopt {
		m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx[:nnz:nnz]}
		if vals != nil {
			m.Vals = vals[:nnz:nnz]
		}
		return m
	}
	ci := make([]int32, nnz)
	var vv []float64
	if vals != nil {
		vv = make([]float64, nnz)
	}
	if sorted {
		copy(ci, colIdx)
		copy(vv, vals)
		return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: ci, Vals: vv}
	}
	next := append([]int64(nil), rowPtr...)
	for k := 0; k < nnz; k++ {
		p := next[rowIdx[k]]
		ci[p] = colIdx[k]
		if vals != nil {
			vv[p] = vals[k]
		}
		next[rowIdx[k]]++
	}
	// Sort each row by column and merge duplicates in place.
	outPtr := make([]int64, rows+1)
	w := int64(0)
	var sorter rowSorter
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sorter.sortRow(ci, vv, lo, hi)
		rowStart := w
		for k := lo; k < hi; k++ {
			if w > rowStart && ci[w-1] == ci[k] {
				if vals != nil {
					vv[w-1] += vv[k]
				}
				continue
			}
			ci[w] = ci[k]
			if vals != nil {
				vv[w] = vv[k]
			}
			w++
		}
		outPtr[i+1] = w
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: outPtr, ColIdx: ci[:w]}
	if vals != nil {
		m.Vals = vv[:w]
	}
	return m
}

// rowSorter sorts CSR row segments by column. Each function that
// assembles a matrix declares one and reuses it for every row, so
// sorting allocates nothing per row.
type rowSorter struct {
	c []int32
	v []float64
}

// sortRow sorts the row segment [lo, hi) of cols by column, permuting
// vals alongside when it is non-nil. A row whose columns already
// strictly increase is left as it is: distinct keys have exactly one
// sorted order, so skipping cannot change the result. Otherwise pattern
// rows use slices.Sort, and valued rows sort.Sort through the reused
// sorter — the same algorithm as always, so the order in which
// duplicate columns are later summed cannot change.
func (s *rowSorter) sortRow(cols []int32, vals []float64, lo, hi int64) {
	seg := cols[lo:hi]
	if strictlyIncreasing(seg) {
		return
	}
	if vals == nil {
		slices.Sort(seg)
		return
	}
	s.c, s.v = seg, vals[lo:hi]
	sort.Sort(s)
}

func strictlyIncreasing(a []int32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			return false
		}
	}
	return true
}

func (s *rowSorter) Len() int           { return len(s.c) }
func (s *rowSorter) Less(i, j int) bool { return s.c[i] < s.c[j] }
func (s *rowSorter) Swap(i, j int) {
	s.c[i], s.c[j] = s.c[j], s.c[i]
	s.v[i], s.v[j] = s.v[j], s.v[i]
}

// FromCOO converts an mmio coordinate matrix to CSR. When c's
// triplets are row-major with strictly ascending columns in each row,
// the CSR adopts c.ColIdx and c.Vals instead of copying them, so the
// two share those arrays: callers drop c, or leave both unmodified.
func FromCOO(c *mmio.COO) (*CSR, error) {
	if err := checkTriplets(c.Rows, c.Cols, c.RowIdx, c.ColIdx, c.Vals); err != nil {
		return nil, err
	}
	return fromTripletsUnchecked(c.Rows, c.Cols, c.RowIdx, c.ColIdx, c.Vals, true), nil
}

// ToCOO converts the matrix to mmio coordinate form for writing.
func (m *CSR) ToCOO() *mmio.COO {
	out := &mmio.COO{
		Rows: m.Rows, Cols: m.Cols,
		RowIdx: make([]int32, 0, m.NNZ()),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Field:  mmio.Real,
	}
	if m.Vals == nil {
		out.Field = mmio.Pattern
	} else {
		out.Vals = append([]float64(nil), m.Vals...)
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.RowIdx = append(out.RowIdx, int32(i))
		}
	}
	return out
}

// RowSlice returns the submatrix consisting of rows [lo, hi) of m,
// sharing no storage with m. Column dimension is preserved. This is the
// horizontal split A = [A1; A2] used by the heterogeneous SpMM.
func (m *CSR) RowSlice(lo, hi int) *CSR {
	if lo < 0 {
		lo = 0
	}
	if hi > m.Rows {
		hi = m.Rows
	}
	if lo > hi {
		lo = hi
	}
	base := m.RowPtr[lo]
	ptr := make([]int64, hi-lo+1)
	for i := lo; i <= hi; i++ {
		ptr[i-lo] = m.RowPtr[i] - base
	}
	out := &CSR{
		Rows:   hi - lo,
		Cols:   m.Cols,
		RowPtr: ptr,
		ColIdx: append([]int32(nil), m.ColIdx[base:m.RowPtr[hi]]...),
	}
	if m.Vals != nil {
		out.Vals = append([]float64(nil), m.Vals[base:m.RowPtr[hi]]...)
	}
	return out
}

// Equal reports whether m and o have identical dimensions and stored
// structure/values (exact float comparison).
func (m *CSR) Equal(o *CSR) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for k := range m.ColIdx {
		if m.ColIdx[k] != o.ColIdx[k] {
			return false
		}
	}
	if (m.Vals == nil) != (o.Vals == nil) {
		return false
	}
	for k := range m.Vals {
		if m.Vals[k] != o.Vals[k] {
			return false
		}
	}
	return true
}
