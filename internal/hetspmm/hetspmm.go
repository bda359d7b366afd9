// Package hetspmm implements the paper's Algorithm 2: heterogeneous
// sparse matrix–matrix multiplication (SpMM) on a CPU+GPU platform,
// after Matam, Indarapu and Kothapalli's hybrid row-row design.
//
// Phase I computes the load vector L_AB (L_AB[i] = work volume of row
// i of A in A×B) on the GPU and splits A horizontally at the row index
// where the prefix work is closest to r% of the total. Phase II runs
// Gustavson's row-row SpMM on both devices concurrently (A1×B on the
// CPU, A2×B on the GPU) and ships the GPU partial product back.
//
// With more accelerators (Section II) the split becomes a partition
// vector of the work volume, and A is cut into one row block per
// device. One cost model serves every device count, and the CPU+GPU
// run is its two-device case. Phase I is the same at any count: the
// first accelerator receives all of A and B and computes the load
// vector, and every further accelerator with work receives B and its
// own block of A. A resident sample pays no transfer.
//
// Because every cost the simulator charges is a function of per-row
// quantities (row work, row output size), the simulated duration of a
// run at split r is computable from prefix sums without re-executing
// the multiplication. Profile captures those prefixes once per (A, B)
// pair; every Workload evaluation reads it, which is what makes
// exhaustive 0..100 sweeps over full inputs affordable. Run always
// executes the real multiplication and its time equals the profile's
// (pinned by tests). One Workload serves every device count: it is a
// partition workload, and its scalar split r is the two-device
// partition {r, 100 - r}.
package hetspmm

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// Cost-model constants: cycle-equivalent ops and bytes per unit of
// measured work. CPU Gustavson pays hash-accumulator maintenance per
// multiply-add; the GPU's row-per-warp kernel is cheap on compute but
// pays memory traffic, divergence (CV of per-row work), and the PCIe
// round trip for its operand and result rows.
const (
	cpuOpsPerFlop   = 6
	cpuBytesPerFlop = 16
	gpuOpsPerFlop   = 2
	gpuBytesPerFlop = 12
	bytesPerNNZ     = 12 // (int32 col, float64 val) per stored entry
	// resultBytesPerFlop: the GPU kernel is an ESC-style Gustavson
	// (expand, sort, compress); the device streams its delta-
	// compressed partial products back while the host performs the
	// final row assembly. Return traffic therefore scales with the
	// multiply-add count — which a miniature sample preserves —
	// rather than with the merged output size, which it cannot.
	resultBytesPerFlop = 1
)

// Algorithm holds the execution configuration for heterogeneous SpMM
// on a CPU and one or more accelerators.
type Algorithm struct {
	Platform *hetsim.Platform
}

// NewAlgorithm returns an Algorithm on a CPU plus one or more
// accelerators. The row space of A is cut into one contiguous block
// per device by a core.Partition of the work volume (not the row
// count), located by binary searches on the profile's prefix sums —
// one binary search per cut.
func NewAlgorithm(p *hetsim.Platform) *Algorithm { return &Algorithm{Platform: p} }

// NewMultiAlgorithm is NewAlgorithm, named for a platform with several
// accelerators: one Algorithm serves every device count.
func NewMultiAlgorithm(p *hetsim.Platform) *Algorithm { return NewAlgorithm(p) }

// Result is the outcome of one heterogeneous SpMM run.
type Result struct {
	// C is the product A×B.
	C *sparse.CSR
	// SplitRow is the row index separating the CPU part [0, SplitRow)
	// from the GPU part.
	SplitRow int
	// Time is the simulated wall-clock duration.
	Time time.Duration
	// CPUTime and GPUTime are the overlapped Phase II durations.
	CPUTime, GPUTime time.Duration
	// FlopsCPU and FlopsGPU are the multiply-add counts per device.
	FlopsCPU, FlopsGPU int64
	// Trace is the per-phase timeline.
	Trace hetsim.Trace
}

// Profile caches the per-row prefix quantities of one (A, B) pair so
// that the simulated duration at any split can be computed in O(log n).
type Profile struct {
	a, b *sparse.CSR
	// loadPrefix is the prefix sum of the load vector L_AB (row i's
	// work volume is loadPrefix[i+1] - loadPrefix[i]).
	loadPrefix []int64
	// outPrefix is the prefix sum of per-row output nonzeros.
	outPrefix []int64
	// Resident marks A and B as already resident in GPU memory, so
	// runs skip the Phase I input transfer. The sampling pipeline
	// ships the miniature A' once and then iterates Identify runs
	// on-device, which is what keeps the estimation overhead near
	// the paper's 13%.
	Resident bool
}

// NewProfile computes the profile for A×B. It runs the load-vector
// computation and a symbolic multiplication: output row sizes come
// from sparse.RowOutputCounts, which marks columns without ever
// accumulating, sorting, or materializing C. Both passes write into
// their prefix arrays (shifted by one), which are then summed in
// place, so the build allocates nothing it does not keep.
func NewProfile(a, b *sparse.CSR) (*Profile, error) {
	p := &Profile{a: a, b: b, loadPrefix: make([]int64, a.Rows+1), outPrefix: make([]int64, a.Rows+1)}
	if _, err := sparse.LoadVectorInto(p.loadPrefix[1:], a, b); err != nil {
		return nil, err
	}
	if _, _, err := sparse.RowOutputCounts(p.outPrefix[1:], a, b); err != nil {
		return nil, err
	}
	for i := 1; i <= a.Rows; i++ {
		p.loadPrefix[i] += p.loadPrefix[i-1]
		p.outPrefix[i] += p.outPrefix[i-1]
	}
	return p, nil
}

// TotalWork returns the total multiply-add count of A×B.
func (p *Profile) TotalWork() int64 { return p.loadPrefix[len(p.loadPrefix)-1] }

// SplitRow translates a split percentage r into the row index whose
// prefix work is closest to r% of the total (Algorithm 2, line 3).
// The profile's cached prefix sums make this an O(log n) binary
// search; a threshold sweep (101 grid points × repeats) never
// rescans the load vector.
func (p *Profile) SplitRow(r float64) int {
	return sparse.SplitRowByWorkPrefix(p.loadPrefix, r/100)
}

// cvBucket is the row-group granularity for the divergence statistic:
// the GPU schedules a warp per row group, so load imbalance is felt
// between 32-row buckets, not between individual rows. Bucketing also
// makes the statistic robust to the Poisson noise that element
// thinning induces on very sparse samples — genuine hub skew survives
// aggregation, sampling noise does not.
const cvBucket = 32

// rangeCV returns the coefficient of variation of the bucketed load
// over rows [lo, hi), delegating to the shared moment implementation
// in internal/stats so the simulator and the threshold store agree on
// the irregularity statistic.
func (p *Profile) rangeCV(lo, hi int) float64 {
	nb := (hi - lo) / cvBucket
	if nb < 2 {
		return 0
	}
	return stats.MomentsOf(nb, func(i int) int {
		b := lo + i*cvBucket
		return int(p.loadPrefix[b+cvBucket] - p.loadPrefix[b])
	}).CV
}

// cuts locates the row boundaries of a share vector: device i gets
// rows [dst[i], dst[i+1]), with the boundary at the row whose prefix
// work is closest to the cumulative share (ascending targets keep the
// cuts monotone). dst must have len(p)+1 entries.
func (prof *Profile) cuts(p core.Partition, dst []int) {
	dst[0] = 0
	acc := 0.0
	for i := 0; i < len(p)-1; i++ {
		acc += p[i]
		dst[i+1] = max(sparse.SplitRowByWorkPrefix(prof.loadPrefix, acc/100), dst[i])
	}
	dst[len(p)] = max(prof.a.Rows, dst[len(p)-1])
}

// segment is one device's block of rows [lo, hi) in prefix terms.
type segment struct {
	lo, hi int
	flops  int64
	nnzA   int64
	nnzOut int64
}

func (p *Profile) segmentOf(lo, hi int) segment {
	return segment{
		lo:     lo,
		hi:     hi,
		flops:  p.loadPrefix[hi] - p.loadPrefix[lo],
		nnzA:   p.a.RowPtr[hi] - p.a.RowPtr[lo],
		nnzOut: p.outPrefix[hi] - p.outPrefix[lo],
	}
}

// busy reports whether the block holds any work.
func (s segment) busy() bool { return s.flops > 0 || s.nnzA > 0 }

// cpuTime charges the CPU's Phase II: Gustavson over its block. The
// CPU kernel hashes into a dense accumulator and schedules rows
// dynamically, so unlike the GPU it is insensitive to row-length
// irregularity — its CV is not charged. This asymmetry is what makes
// the optimal split input-dependent: skewed inputs push work toward
// the CPU.
func (a *Algorithm) cpuTime(seg segment) time.Duration {
	if !seg.busy() {
		return 0
	}
	return a.Platform.CPU.Time(hetsim.Kernel{
		Name:             "spmm-cpu",
		Ops:              cpuOpsPerFlop * seg.flops,
		Bytes:            cpuBytesPerFlop * seg.flops,
		Launches:         a.Platform.CPU.Spec.Cores,
		ParallelFraction: 0.98,
	})
}

// accTime charges one accelerator's Phase II: row-per-warp Gustavson
// over its block, plus its result rows shipped back. Row setup
// (pointer loads, bin assignment) is charged per operand entry
// streamed, not per row: GPU kernels compact empty rows away, and
// entry counts — unlike row counts — shrink at the same rate as flops
// under submatrix sampling.
func (a *Algorithm) accTime(p *Profile, dev *hetsim.Device, seg segment) time.Duration {
	if !seg.busy() {
		return 0
	}
	t := dev.Time(hetsim.Kernel{
		Name:             "spmm-gpu",
		Ops:              gpuOpsPerFlop*seg.flops + 8*seg.nnzA,
		Bytes:            gpuBytesPerFlop * seg.flops,
		Launches:         1,
		ParallelFraction: 1,
		IrregularityCV:   p.rangeCV(seg.lo, seg.hi),
	})
	return t + a.Platform.Link.Transfer(resultBytesPerFlop*seg.flops)
}

// simulate is the one cost model of a run, for any device count:
// device i (0 is the CPU, i >= 1 accelerator i-1) multiplies rows
// [cuts[i], cuts[i+1]) of A by B. Devices past the last cut stay idle.
//
//   - Phase I: the first accelerator receives A and B, computes the
//     load vector and locates the cuts (Algorithm 2 lines 1-3); every
//     further accelerator with work receives B and its block of A over
//     the same link (transfers serialize on one bus). A resident input
//     ships nothing.
//   - Phase II: every device computes its block concurrently.
//   - Combine: the CPU appends the accelerators' rows under its own (a
//     streaming memory pass).
//
// Run and SimTimeMulti both charge through it, so the profile path
// and the real-execution path charge identical times. dev, when
// non-nil, receives each device's Phase II duration.
func (a *Algorithm) simulate(p *Profile, cuts []int, dev []time.Duration) (phase1, compute, combine time.Duration) {
	nnzA, nnzB := int64(p.a.NNZ()), int64(p.b.NNZ())
	if !p.Resident {
		phase1 = a.Platform.Link.Transfer(bytesPerNNZ * (nnzA + nnzB))
	}
	phase1 += a.Platform.GPUs[0].Time(hetsim.Kernel{
		Name:             "spmm-loadvec",
		Ops:              nnzA + int64(p.a.Rows),
		Bytes:            8 * nnzA,
		Launches:         2,
		ParallelFraction: 1,
	})
	var out int64 // accelerator output entries the CPU appends
	for i := 0; i+1 < len(cuts); i++ {
		seg := p.segmentOf(cuts[i], cuts[i+1])
		var t time.Duration
		if i == 0 {
			t = a.cpuTime(seg)
		} else {
			t = a.accTime(p, a.Platform.GPUs[i-1], seg)
			out += seg.nnzOut
			if i > 1 && seg.busy() && !p.Resident {
				phase1 += a.Platform.Link.Transfer(bytesPerNNZ * (seg.nnzA + nnzB))
			}
		}
		if dev != nil {
			dev[i] = t
		}
		compute = hetsim.Overlap(compute, t)
	}
	combine = a.Platform.CPU.Time(hetsim.Kernel{
		Name:             "spmm-combine",
		Ops:              out,
		Bytes:            bytesPerNNZ * out,
		Launches:         1,
		ParallelFraction: 0.9,
	})
	return phase1, compute, combine
}

// SimTimeMulti returns the simulated wall-clock duration of a run at
// the given work partition, computed from the profile alone. Share i
// of p is device i's percentage of the total work volume (device 0 is
// the CPU). Malformed vectors are a *core.PartitionError, never
// renormalized. Safe for concurrent use: it only reads the profile's
// prefix sums.
func (a *Algorithm) SimTimeMulti(p *Profile, shares core.Partition) (time.Duration, error) {
	n := a.Platform.Devices()
	if err := shares.ValidateFor(n, "the platform"); err != nil {
		return 0, err
	}
	if n > MaxDevices {
		return 0, fmt.Errorf("hetspmm: platform has %d devices, max %d", n, MaxDevices)
	}
	var cutsArr [MaxDevices + 1]int
	cuts := cutsArr[:n+1]
	p.cuts(shares, cuts)
	phase1, compute, combine := a.simulate(p, cuts, nil)
	return phase1 + compute + combine, nil
}

// deviceTimes fills times[i] with device i's Phase II duration for the
// whole product alone — the racers of the coarse estimation step. The
// constant phases are excluded: the race balances the overlapped
// computation.
func (a *Algorithm) deviceTimes(p *Profile, times []time.Duration) {
	all := p.segmentOf(0, p.a.Rows)
	times[0] = a.cpuTime(all)
	for i := 1; i < len(times); i++ {
		times[i] = a.accTime(p, a.Platform.GPUs[i-1], all)
	}
}

// Run executes Algorithm 2 for real: it computes C = A×B with the
// split percentage r, with rows [0, splitRow) on the (simulated) CPU
// and the rest on the (simulated) first accelerator, and charges
// simulated time.
func (a *Algorithm) Run(p *Profile, r float64) (*Result, error) {
	if r < 0 || r > 100 {
		return nil, fmt.Errorf("hetspmm: split %v outside [0, 100]", r)
	}
	splitRow := p.SplitRow(r)
	var dev [2]time.Duration
	phase1, compute, combine := a.simulate(p, []int{0, splitRow, p.a.Rows}, dev[:])
	res := &Result{SplitRow: splitRow}

	a1 := p.a.RowSlice(0, splitRow)
	a2 := p.a.RowSlice(splitRow, p.a.Rows)
	c1, flops1, err := sparse.SpMMParallel(a1, p.b, a.Platform.CPU.Spec.Cores)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: CPU part: %w", err)
	}
	c2, flops2, err := sparse.SpMM(a2, p.b)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: GPU part: %w", err)
	}
	res.C, err = sparse.VStack(c1, c2)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: combining: %w", err)
	}
	res.FlopsCPU, res.FlopsGPU = flops1, flops2

	res.CPUTime, res.GPUTime = dev[0], dev[1]
	res.Trace.Add(hetsim.PhasePartition, "gpu", phase1)
	res.Trace.Add(hetsim.PhaseCompute, "cpu", dev[0])
	res.Trace.Add(hetsim.PhaseCompute, "gpu", dev[1])
	res.Trace.Add(hetsim.PhaseMerge, "cpu", combine)
	res.Time = phase1 + compute + combine
	return res, nil
}
