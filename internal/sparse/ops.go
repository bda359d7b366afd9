package sparse

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// LoadVector computes the per-row work volume of the product A×B: the
// vector L_AB with L_AB[i] = Σ_{j : A[i][j] ≠ 0} nnz(B[j]). This is the
// observation exploited by the paper's Algorithm 2 ("The product
// A × V_B will be a vector L_AB such that L_AB[i] equals the work
// volume of the ith row of A").
//
// The total work volume (the 1-norm of L_AB) equals the number of
// scalar multiply-adds the Gustavson SpMM will perform.
func LoadVector(a, b *CSR) ([]int64, error) {
	return LoadVectorInto(nil, a, b)
}

// LoadVectorInto computes the load vector into dst, growing it only
// when its capacity is short of A.Rows, and returns the (possibly
// reallocated) result. Row lengths of B are read from B's structural
// index (one int32 per stored entry of A instead of two int64 RowPtr
// loads), built lazily on B's first profile and cached for every
// later pass over the same matrix. Beyond that one-time index and dst
// itself the pass allocates nothing; LoadVectorInto(nil, a, b) is
// equivalent to LoadVector(a, b).
func LoadVectorInto(dst []int64, a, b *CSR) ([]int64, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparse: LoadVector dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if cap(dst) < a.Rows {
		dst = make([]int64, a.Rows)
	}
	out := dst[:a.Rows]
	rowLen := b.Index().RowLen
	colIdx := a.ColIdx
	lo := a.RowPtr[0]
	for i := range out {
		hi := a.RowPtr[i+1]
		var s0, s1, s2, s3 int64
		k := lo
		for ; k+4 <= hi; k += 4 {
			s0 += int64(rowLen[colIdx[k]])
			s1 += int64(rowLen[colIdx[k+1]])
			s2 += int64(rowLen[colIdx[k+2]])
			s3 += int64(rowLen[colIdx[k+3]])
		}
		s := s0 + s1 + s2 + s3
		for ; k < hi; k++ {
			s += int64(rowLen[colIdx[k]])
		}
		out[i] = s
		lo = hi
	}
	return out, nil
}

// roundedTarget converts a work fraction into an absolute work target,
// rounding to the nearest unit. Shared by every split-row variant so
// their contracts cannot drift.
func roundedTarget(frac float64, total int64) int64 {
	return int64(math.Round(frac * float64(total)))
}

// SplitRowByWorkPrefix returns the row index whose prefix work sum is
// closest to frac (in [0,1]) of the total work. This is how
// Algorithm 2 translates a split percentage r into the split row
// ("find out the split row index i where V_L[i] is closest to L_CPU").
// The returned index is in [0, len(prefix)-1].
//
// prefix is the load vector's prefix-sum array: length len(load)+1
// with prefix[0] = 0 and prefix[i] = load[0]+…+load[i-1]. The profile
// builders cache it once per dataset, and threshold sweeps (101 grid
// points × repeats) locate each split with an O(log n) binary search
// instead of rescanning the load vector.
//
// The target is frac·total rounded to the nearest unit of work
// (math.Round): truncating it instead biases the split row low by one
// whenever frac·total lands just under an exact row boundary. The
// contract is pinned against the linear scan SplitRowByWorkRef.
func SplitRowByWorkPrefix(prefix []int64, frac float64) int {
	n := len(prefix) - 1
	if n <= 0 {
		return 0
	}
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	target := roundedTarget(frac, prefix[n])
	// Smallest j in [1, n] with prefix[j] >= target; j exists because
	// target <= prefix[n]. Equivalent to the scan's first row i = j-1
	// whose inclusive prefix reaches the target.
	lo, hi := 1, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if prefix[mid] >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if target-prefix[lo-1] <= prefix[lo]-target {
		return lo - 1
	}
	return lo
}

// spmmRowInto computes row i of C = A×B into the dense accumulator,
// returning the indices touched and the number of multiply-adds
// performed. acc and marker must have length B.Cols; marker entries for
// touched columns are set to generation and reset implicitly by using a
// new generation next call.
type spmmAccumulator struct {
	acc        []float64
	marker     []int32
	generation int32
	touched    []int32

	// Blocked symbolic-pass scratch (rowNNZBlocked): gathered candidate
	// columns, their counting-sort-by-block permutation, per-block
	// bucket offsets, and the cache-resident per-strip marker with its
	// own generation counter. All lazily grown; only wide-matrix
	// symbolic passes pay for them.
	cand       []int32
	candSorted []int32
	blockOff   []int32
	strip      []int32
	stripGen   int32
}

func newSpmmAccumulator(cols int) *spmmAccumulator {
	return &spmmAccumulator{
		acc:     make([]float64, cols),
		marker:  make([]int32, cols),
		touched: make([]int32, 0, 256),
	}
}

// accPool recycles accumulators across multiplications. Gustavson's
// scratch (dense accumulator + marker) is the dominant per-call
// allocation of SpMM; the profile builders run one multiplication per
// Sample, which puts this on the estimation hot path.
var accPool sync.Pool

// getAccumulator returns a pooled accumulator resized for cols output
// columns; pair with putAccumulator.
func getAccumulator(cols int) *spmmAccumulator {
	v, _ := accPool.Get().(*spmmAccumulator)
	if v == nil {
		return newSpmmAccumulator(cols)
	}
	v.ensure(cols)
	return v
}

// accRetainFactor and accRetainFloor bound what putAccumulator keeps: a
// scratch whose capacity exceeds accRetainFactor × the last requested
// column count is dropped instead of pooled. Without the bound, one
// multiplication against a wide matrix (webbase-class, ~10⁶ columns)
// pins multi-megabyte accumulators in the pool for the lifetime of the
// process even though every later caller works on small samples. The
// floor exempts small scratches, whose retention costs nothing and
// whose reallocation churn would dominate.
const (
	accRetainFactor = 4
	accRetainFloor  = 1 << 13
)

// putAccumulator returns the scratch to the pool, or drops it when its
// backing arrays are oversized for the work it was last used for
// (capacity > accRetainFactor × requested columns). Reports whether the
// scratch was pooled, for the retention tests.
func putAccumulator(s *spmmAccumulator) bool {
	if cap(s.marker) > accRetainFloor && cap(s.marker) > accRetainFactor*len(s.marker) {
		return false
	}
	accPool.Put(s)
	return true
}

// ensure resizes the scratch for cols output columns, reusing backing
// arrays when capacity allows. Newly exposed marker entries are zeroed
// and the generation counter keeps ascending, so stale marks from a
// previous multiplication can never collide with a future generation.
func (s *spmmAccumulator) ensure(cols int) {
	if cap(s.marker) < cols {
		s.acc = make([]float64, cols)
		s.marker = make([]int32, cols)
		s.generation = 0
		return
	}
	if grown := len(s.marker); cols > grown {
		s.marker = s.marker[:cols]
		s.acc = s.acc[:cols]
		clear(s.marker[grown:])
	} else {
		s.marker = s.marker[:cols]
		s.acc = s.acc[:cols]
	}
}

// nextGeneration advances the marker generation, resetting the whole
// backing array (full capacity, including entries a shorter reuse has
// hidden) on the rare wraparound.
func (s *spmmAccumulator) nextGeneration() {
	s.generation++
	if s.generation == 0 { // wrapped; reset markers
		clear(s.marker[:cap(s.marker)])
		s.generation = 1
	}
}

// rowNNZ counts the distinct output columns of row i of A×B — the
// symbolic half of Gustavson's algorithm: marker bookkeeping only, no
// accumulation, no sorting. Returns the row's output nnz and its
// multiply-add count.
func (s *spmmAccumulator) rowNNZ(a, b *CSR, i int) (nnz, flops int64) {
	s.nextGeneration()
	// Hoist the marker slice and generation into locals: the inner
	// loop stores through marker, and the compiler cannot prove those
	// stores leave the struct fields unchanged, so field reads inside
	// the loop would reload both every iteration.
	marker, gen := s.marker, s.generation
	rp, ci := b.RowPtr, b.ColIdx
	aCols, _ := a.Row(i)
	for _, j := range aCols {
		lo, hi := rp[j], rp[j+1]
		flops += hi - lo
		for k := lo; k < hi; k++ {
			c := ci[k]
			if marker[c] != gen {
				marker[c] = gen
				nnz++
			}
		}
	}
	return nnz, flops
}

// Adaptive symbolic-pass thresholds. The full-width marker walk
// (rowNNZ) takes one random 4-byte store per candidate entry; on wide
// matrices the marker is megabytes and almost every store is a cache
// miss. rowNNZAdaptive therefore picks, per row:
//
//   - the direct marker whenever it is cache-resident (B narrower
//     than symResidentCols — measured crossover: at 512K columns the
//     2MB marker still ties the alternatives, above it the misses
//     dominate), or when the row is dense enough that the marker walk
//     is effectively a sequential pass;
//   - gather + insertion sort for rows with at most symSortMax
//     candidates against a genuinely wide B (a handful of entries:
//     sorting in registers beats touching a cold multi-megabyte
//     marker at all);
//   - otherwise the strip-mined counting pass (rowNNZBlocked), which
//     buckets candidates by 2^symBlockBits-column strips and marks
//     within one cache-resident strip at a time.
const (
	symSortMax      = 48
	symResidentCols = 1 << 19
	symBlockBits    = 15
	symBlockMask    = 1<<symBlockBits - 1
)

// rowNNZAdaptive computes the same (nnz, flops) as rowNNZ, choosing
// the cheapest strategy for the row's candidate count and the marker's
// working-set size. bRowLen is b.Index().RowLen; the candidate count
// (= the row's flops) is known before any candidate is touched, which
// is what makes per-row strategy selection free.
func (s *spmmAccumulator) rowNNZAdaptive(a, b *CSR, bRowLen []int32, i int) (nnz, flops int64) {
	// Resident marker: no strategy choice to make, so skip the
	// candidate-count pre-pass — rowNNZ counts flops as it walks.
	if b.Cols <= symResidentCols {
		return s.rowNNZ(a, b, i)
	}
	aCols, _ := a.Row(i)
	for _, j := range aCols {
		flops += int64(bRowLen[j])
	}
	switch {
	case flops >= int64(b.Cols)/4:
		nnz, _ = s.rowNNZ(a, b, i)
		return nnz, flops
	case flops <= symSortMax:
		return s.rowNNZSorted(aCols, b), flops
	default:
		return s.rowNNZBlocked(aCols, b, flops), flops
	}
}

// rowNNZSorted counts distinct candidate columns by gathering them
// into a tiny buffer, insertion-sorting it, and counting strict
// ascents — no marker traffic. Only called for rows with at most
// symSortMax candidates.
func (s *spmmAccumulator) rowNNZSorted(aCols []int32, b *CSR) int64 {
	var buf [symSortMax]int32
	n := 0
	for _, j := range aCols {
		lo, hi := b.RowPtr[j], b.RowPtr[j+1]
		n += copy(buf[n:], b.ColIdx[lo:hi])
	}
	cand := buf[:n]
	insertionSortInt32(cand)
	var nnz int64
	prev := int32(-1)
	for _, c := range cand {
		if c != prev {
			nnz++
			prev = c
		}
	}
	return nnz
}

// rowNNZBlocked strip-mines the symbolic pass over column blocks of
// width 2^symBlockBits: candidates are gathered once, counting-sorted
// by block, and each block is then de-duplicated against a marker that
// spans only that block — a working set of 4·2^symBlockBits bytes
// regardless of B's width. flops is the candidate count (already
// computed by the caller).
func (s *spmmAccumulator) rowNNZBlocked(aCols []int32, b *CSR, flops int64) int64 {
	if cap(s.cand) < int(flops) {
		s.cand = make([]int32, 0, int(flops))
		s.candSorted = make([]int32, int(flops))
	}
	cand := s.cand[:0]
	for _, j := range aCols {
		lo, hi := b.RowPtr[j], b.RowPtr[j+1]
		cand = append(cand, b.ColIdx[lo:hi]...)
	}
	s.cand = cand

	nb := (b.Cols-1)>>symBlockBits + 1
	if cap(s.blockOff) < nb+1 {
		s.blockOff = make([]int32, nb+1)
	}
	off := s.blockOff[:nb+1]
	clear(off)
	for _, c := range cand {
		off[c>>symBlockBits+1]++
	}
	for k := 0; k < nb; k++ {
		off[k+1] += off[k]
	}
	sorted := s.candSorted[:len(cand)]
	// off is consumed as per-block write cursors during the scatter;
	// afterwards off[k] is the END of block k's span (= start of
	// block k+1), so the per-block loop below walks spans
	// [start, off[k]) with start trailing behind.
	for _, c := range cand {
		k := c >> symBlockBits
		sorted[off[k]] = c
		off[k]++
	}
	if len(s.strip) == 0 {
		s.strip = make([]int32, 1<<symBlockBits)
	}
	var nnz int64
	start := int32(0)
	for k := 0; k < nb; k++ {
		end := off[k]
		if end == start {
			continue
		}
		s.stripGen++
		if s.stripGen == 0 { // wrapped; reset strip marks
			clear(s.strip)
			s.stripGen = 1
		}
		gen := s.stripGen
		for _, c := range sorted[start:end] {
			m := c & symBlockMask
			if s.strip[m] != gen {
				s.strip[m] = gen
				nnz++
			}
		}
		start = end
	}
	return nnz
}

// row computes one output row; results are appended to the provided
// CSR-building buffers. Returns the multiply-add count.
func (s *spmmAccumulator) row(a, b *CSR, i int, outCols *[]int32, outVals *[]float64) int64 {
	s.nextGeneration()
	s.touched = s.touched[:0]
	var flops int64
	aCols, aVals := a.Row(i)
	for k, j := range aCols {
		av := 1.0
		if aVals != nil {
			av = aVals[k]
		}
		bCols, bVals := b.Row(int(j))
		flops += int64(len(bCols))
		for k2, c := range bCols {
			bv := 1.0
			if bVals != nil {
				bv = bVals[k2]
			}
			if s.marker[c] != s.generation {
				s.marker[c] = s.generation
				s.acc[c] = av * bv
				s.touched = append(s.touched, c)
			} else {
				s.acc[c] += av * bv
			}
		}
	}
	sortTouched(s.touched)
	for _, c := range s.touched {
		*outCols = append(*outCols, c)
		*outVals = append(*outVals, s.acc[c])
	}
	return flops
}

// sortTouched sorts an output row's column indices: insertion sort for
// short rows (the common case), pdqsort via slices.Sort for dense ones
// where the quadratic cost would dominate the whole multiplication.
func sortTouched(a []int32) {
	if len(a) > 48 {
		slices.Sort(a)
		return
	}
	insertionSortInt32(a)
}

func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// RowOutputCounts computes the per-row output sizes of C = A×B (the
// nnz of each row of the product) and the total multiply-add count
// WITHOUT materializing C: a symbolic Gustavson pass that only marks
// columns. dst is reused when its capacity allows, as in
// LoadVectorInto. Profile builders, which need output sizes but never
// the product itself, use this instead of a full SpMM — it skips the
// accumulation, the per-row sort, and the output arrays entirely.
// Rows are dispatched adaptively between a register-resident sorted
// count, the dense marker, and a strip-mined blocked pass (see
// rowNNZAdaptive); the counts are exact and pinned bit-identical to
// RowOutputCountsRef by the golden suite.
func RowOutputCounts(dst []int64, a, b *CSR) ([]int64, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("sparse: RowOutputCounts dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if cap(dst) < a.Rows {
		dst = make([]int64, a.Rows)
	}
	out := dst[:a.Rows]
	acc := getAccumulator(b.Cols)
	defer putAccumulator(acc)
	bRowLen := b.Index().RowLen
	var flops int64
	for i := 0; i < a.Rows; i++ {
		nnz, f := acc.rowNNZAdaptive(a, b, bRowLen, i)
		out[i] = nnz
		flops += f
	}
	return out, flops, nil
}

// SpMM computes C = A×B with Gustavson's sequential row-row algorithm.
// It also returns the number of scalar multiply-adds performed, which
// equals the sum of LoadVector(A, B).
func SpMM(a, b *CSR) (*CSR, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("sparse: SpMM dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	acc := getAccumulator(b.Cols)
	defer putAccumulator(acc)
	rowPtr := make([]int64, a.Rows+1)
	cols := make([]int32, 0)
	vals := make([]float64, 0)
	var flops int64
	for i := 0; i < a.Rows; i++ {
		flops += acc.row(a, b, i, &cols, &vals)
		rowPtr[i+1] = int64(len(cols))
	}
	return &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: rowPtr, ColIdx: cols, Vals: vals}, flops, nil
}

// SpMMParallel computes C = A×B using workers goroutines, each running
// Gustavson's algorithm over a contiguous block of rows. With
// workers <= 1 it falls back to the sequential kernel.
func SpMMParallel(a, b *CSR, workers int) (*CSR, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("sparse: SpMMParallel dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if workers <= 1 || a.Rows < 2*workers {
		return SpMM(a, b)
	}
	type block struct {
		lo, hi int
		cols   []int32
		vals   []float64
		ptr    []int64 // local, 0-based
		flops  int64
	}
	blocks := make([]block, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * a.Rows / workers
		hi := (w + 1) * a.Rows / workers
		blocks[w].lo, blocks[w].hi = lo, hi
		wg.Add(1)
		go func(blk *block) {
			defer wg.Done()
			acc := getAccumulator(b.Cols)
			defer putAccumulator(acc)
			blk.ptr = make([]int64, blk.hi-blk.lo+1)
			for i := blk.lo; i < blk.hi; i++ {
				blk.flops += acc.row(a, b, i, &blk.cols, &blk.vals)
				blk.ptr[i-blk.lo+1] = int64(len(blk.cols))
			}
		}(&blocks[w])
	}
	wg.Wait()

	var totalNNZ, totalFlops int64
	for w := range blocks {
		totalNNZ += int64(len(blocks[w].cols))
		totalFlops += blocks[w].flops
	}
	out := &CSR{
		Rows:   a.Rows,
		Cols:   b.Cols,
		RowPtr: make([]int64, a.Rows+1),
		ColIdx: make([]int32, 0, totalNNZ),
		Vals:   make([]float64, 0, totalNNZ),
	}
	for w := range blocks {
		blk := &blocks[w]
		base := int64(len(out.ColIdx))
		out.ColIdx = append(out.ColIdx, blk.cols...)
		out.Vals = append(out.Vals, blk.vals...)
		for i := blk.lo; i < blk.hi; i++ {
			out.RowPtr[i+1] = base + blk.ptr[i-blk.lo+1]
		}
	}
	return out, totalFlops, nil
}

// VStack stacks matrices vertically (same column count). It is used to
// reassemble C from the CPU and GPU partial products.
func VStack(parts ...*CSR) (*CSR, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sparse: VStack of nothing")
	}
	cols := parts[0].Cols
	rows, nnz := 0, 0
	hasVals := false
	for _, p := range parts {
		if p.Vals != nil {
			hasVals = true
		}
		rows += p.Rows
		nnz += p.NNZ()
	}
	for _, p := range parts {
		if p.Cols != cols {
			return nil, fmt.Errorf("sparse: VStack column mismatch %d vs %d", p.Cols, cols)
		}
		// A pattern part (nil Vals) with stored entries cannot be
		// mixed with valued parts; an empty part is compatible with
		// anything.
		if hasVals && p.Vals == nil && p.NNZ() > 0 {
			return nil, fmt.Errorf("sparse: VStack mixes pattern and valued matrices")
		}
	}
	out := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: make([]int32, 0, nnz),
	}
	if hasVals {
		out.Vals = make([]float64, 0, nnz)
	}
	r := 0
	for _, p := range parts {
		base := int64(len(out.ColIdx))
		out.ColIdx = append(out.ColIdx, p.ColIdx...)
		if hasVals {
			out.Vals = append(out.Vals, p.Vals...)
		}
		for i := 0; i < p.Rows; i++ {
			out.RowPtr[r+1] = base + p.RowPtr[i+1]
			r++
		}
	}
	return out, nil
}

// Add returns A+B elementwise; dimensions must match. Used by HH-CPU's
// Phase IV to combine partial products.
func Add(a, b *CSR) (*CSR, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("sparse: Add dims %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if (a.Vals == nil) != (b.Vals == nil) {
		return nil, fmt.Errorf("sparse: Add mixes pattern and valued matrices")
	}
	rowPtr := make([]int64, a.Rows+1)
	cols := make([]int32, 0, a.NNZ()+b.NNZ())
	var vals []float64
	if a.Vals != nil {
		vals = make([]float64, 0, a.NNZ()+b.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		ka, kb := 0, 0
		for ka < len(ac) || kb < len(bc) {
			switch {
			case kb == len(bc) || (ka < len(ac) && ac[ka] < bc[kb]):
				cols = append(cols, ac[ka])
				if vals != nil {
					vals = append(vals, av[ka])
				}
				ka++
			case ka == len(ac) || bc[kb] < ac[ka]:
				cols = append(cols, bc[kb])
				if vals != nil {
					vals = append(vals, bv[kb])
				}
				kb++
			default: // equal columns
				cols = append(cols, ac[ka])
				if vals != nil {
					vals = append(vals, av[ka]+bv[kb])
				}
				ka++
				kb++
			}
		}
		rowPtr[i+1] = int64(len(cols))
	}
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: rowPtr, ColIdx: cols, Vals: vals}, nil
}
