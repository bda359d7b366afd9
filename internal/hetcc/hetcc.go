// Package hetcc implements the paper's Algorithm 1: heterogeneous
// connected components on a CPU+GPU platform, following Banerjee and
// Kothapalli's hybrid CC design.
//
// Phase I partitions the vertex set by a threshold t ∈ [0, 100]: the
// first n·t/100 vertices (and the edges among them) form G_CPU, the
// rest form G_GPU; edges with one endpoint on each side are cross
// edges. Phase II finds components of G_CPU on the CPU (partitioned
// multi-threaded DFS) and of G_GPU on the GPU (Shiloach–Vishkin),
// overlapped; the cross edges then merge the two labelings. With more
// accelerators (Section II) the threshold becomes a vector of shares,
// one contiguous vertex range per device; the CPU+GPU run is the
// two-device case of the same runner.
//
// The package charges simulated time for each phase through the hetsim
// device models using the work computed on the real graph (arcs
// scanned, SV rounds, bytes moved). The clock reads those counters,
// not the component labels: Run executes every kernel and returns the
// labels, while an evaluation (Workload.EvaluatePartition) runs
// time-only. It counts the CPU prefix's cross-part arcs from the graph
// structure instead of running the DFS, and skips the label copies and
// the cross-edge merge; Shiloach–Vishkin still runs for its round and
// edge counts. Both return the same duration. The sampling adapter
// (Workload) plugs the whole thing into the core partitioning
// framework at every device count: it is a partition workload, and
// its scalar threshold t is the two-device partition {t, 100 - t}.
package hetcc

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetsim"
)

// Algorithm holds the execution configuration for heterogeneous CC on
// a CPU and one or more accelerators. Phase I divides G_CPU across
// every CPU core (the paper's c threads).
type Algorithm struct {
	Platform *hetsim.Platform
}

// NewAlgorithm returns an Algorithm on a CPU plus one or more
// accelerators — on the CPU+GPU pair, or the paper's Section II
// extension: the vertex set is split into one contiguous range per
// device by a vector of share percentages, each device finds the
// components of its subgraph concurrently, and all cross edges merge
// the labelings.
func NewAlgorithm(p *hetsim.Platform) *Algorithm { return &Algorithm{Platform: p} }

// NewMultiAlgorithm is NewAlgorithm, named for a platform with several
// accelerators: one Algorithm serves every device count.
func NewMultiAlgorithm(p *hetsim.Platform) *Algorithm { return NewAlgorithm(p) }

// Result is the outcome of one heterogeneous CC run.
type Result struct {
	// Labels assigns each vertex its component's minimum vertex id.
	Labels []int32
	// Components is the number of connected components of G.
	Components int
	// Time is the simulated wall-clock duration of the run
	// (partition + overlapped compute + merge + transfers).
	Time time.Duration
	// DeviceTimes[i] is device i's overlapped phase duration: index 0
	// is the CPU, index i >= 1 accelerator i-1 including its input
	// transfer. CPUTime and GPUTime repeat the CPU's and the first
	// accelerator's.
	DeviceTimes      []time.Duration
	CPUTime, GPUTime time.Duration
	// CrossEdges is the number of edges spanning the partitions.
	CrossEdges int64
	// Trace is the per-phase timeline.
	Trace hetsim.Trace
}

// Run executes Algorithm 1 on g with partition p: share i is the
// percentage of vertices assigned to platform device i (device 0 is
// the CPU; on a CPU+GPU platform p is {t, 100 - t} for threshold t).
// Malformed vectors are a *core.PartitionError, never renormalized.
// Run is the labelled run: it executes every kernel and merges the
// labelings, though Time depends only on the kernels' counters, so
// Workload.EvaluatePartition returns the same Time without labels.
// Each call uses its own working memory, so the returned Result is
// independently owned; the sampling adapters evaluate on pooled
// scratch instead.
func (a *Algorithm) Run(g *graph.Graph, p core.Partition) (*Result, error) {
	res := &Result{}
	if err := a.runInto(g, p, res, new(splitScratch), true); err != nil {
		return nil, err
	}
	return res, nil
}

// runInto executes Algorithm 1 on the shared runner, drawing every
// buffer from s; res is fully overwritten and aliases s afterwards.
// Without labelled it is a time-only run: every field but Labels and
// Components is set, those two are left zero.
func (a *Algorithm) runInto(g *graph.Graph, p core.Partition, res *Result, s *splitScratch, labelled bool) error {
	if g == nil {
		return fmt.Errorf("hetcc: nil graph")
	}
	if err := p.ValidateFor(a.Platform.Devices(), "the platform"); err != nil {
		return err
	}
	// Cut points in vertex space: device i owns [cuts[i], cuts[i+1]).
	s.cuts = append(s.cuts[:0], 0)
	acc := 0.0
	for _, share := range p[:len(p)-1] {
		acc += share
		s.cuts = append(s.cuts, min(int(float64(g.N)*acc/100), g.N))
	}
	s.cuts = append(s.cuts, g.N)
	res.Labels, res.Components, res.Time = s.run(g, a, labelled)
	res.Trace.Entries = s.trace
	res.DeviceTimes = s.deviceTimes
	res.CPUTime, res.GPUTime = s.deviceTimes[0], s.deviceTimes[1]
	res.CrossEdges = int64(len(s.cross))
	return nil
}

// evaluate returns the simulated duration of a run at partition p,
// checking a run scratch out of the shared pool — which is what makes
// the evaluation loop allocation-free in the steady state. The run is
// time-only (see splitScratch.run); its duration equals Run's.
func (a *Algorithm) evaluate(g *graph.Graph, p core.Partition) (time.Duration, error) {
	s := scratchPool.Get().(*splitScratch)
	defer scratchPool.Put(s)
	var res Result
	if err := a.runInto(g, p, &res, s, false); err != nil {
		return 0, err
	}
	return res.Time, nil
}

// ccCPUTimeSplit charges the partitioned multi-threaded DFS over the
// CPU prefix [0, nCPU), whose row u is the first split[u] arcs of the
// original row. The per-thread parts are rebalanced dynamically (work
// stealing), so the DFS work is charged as near-fully-parallel over
// the total arc count cpuArcs; the cross-part label merge is a
// half-sequential union–find pass over the crossPart part-crossing
// arcs. A labelled run takes that count from
// graph.ParallelCPUPrefixInto, whose merge pass finds it anyway; a
// time-only run counts it with graph.CrossPartPrefix from the
// structure alone, without the DFS. The duration is identical
// to charging the materialized prefix subgraph (same arc count,
// cross-part count and degree CV, with the CV computed in
// stats.MomentsOf float order).
func ccCPUTimeSplit(dev *hetsim.Device, c int, split []int32, nCPU int, cpuArcs, crossPart int64) time.Duration {
	if nCPU == 0 {
		return 0
	}
	// A DFS edge visit is a dependent-load chain (fetch neighbor,
	// check label, branch, push): ~40 cycle-equivalent ops per arc
	// once cache misses are amortized in.
	const dfsOpsPerArc = 40
	dfs := hetsim.Kernel{
		Name:             "cc-dfs",
		Ops:              dfsOpsPerArc * cpuArcs,
		Bytes:            9 * cpuArcs, // adjacency + label touches
		Launches:         c,
		IrregularityCV:   degreeCVPrefix(split, nCPU, cpuArcs),
		ParallelFraction: 0.98,
	}
	merge := hetsim.Kernel{
		Name:             "cc-cpu-merge",
		Ops:              12 * crossPart,
		Bytes:            8 * crossPart,
		Launches:         1,
		ParallelFraction: 0.5,
	}
	return dev.TimeAll(dfs, merge)
}

// degreeCVPrefix is graph.DegreeCV over the prefix partition's degrees
// (split[u] for u < n), float op for float op. arcs is the precomputed
// degree total; summing the integer-valued degrees in float64 is exact
// (every partial sum is an integer far below 2^53), so float64(arcs)
// is bit-identical to the reference's sequential accumulation.
func degreeCVPrefix(split []int32, n int, arcs int64) float64 {
	if n < 2 {
		return 0
	}
	mean := float64(arcs) / float64(n)
	if mean <= 0 {
		return 0
	}
	var m2 float64
	for i := 0; i < n; i++ {
		d := float64(split[i]) - mean
		m2 += d * d
	}
	m2 /= float64(n)
	if m2 <= 0 {
		return 0
	}
	return math.Sqrt(m2) / mean
}

// degreeCVRange is graph.DegreeCV over the degrees of the range
// subgraph [lo, hi) (upper[u] - lower[u]), float op for float op, with
// the sum pass replaced by the precomputed arc total (exact; see
// degreeCVPrefix).
func degreeCVRange(lower, upper []int32, lo, hi int, arcs int64) float64 {
	cnt := hi - lo
	if cnt < 2 {
		return 0
	}
	mean := float64(arcs) / float64(cnt)
	if mean <= 0 {
		return 0
	}
	var m2 float64
	for u := lo; u < hi; u++ {
		d := float64(upper[u]-lower[u]) - mean
		m2 += d * d
	}
	m2 /= float64(cnt)
	if m2 <= 0 {
		return 0
	}
	return math.Sqrt(m2) / mean
}

// svKernel charges Shiloach–Vishkin from its measured counters: every
// round launches a hooking kernel over the arcs and a jump kernel over
// the vertices; divergence grows with the degree irregularity cv.
func svKernel(r *graph.CCResult, cv float64) hetsim.Kernel {
	return hetsim.Kernel{
		Name:             "cc-sv",
		Ops:              2 * r.EdgesVisited,
		Bytes:            10 * r.EdgesVisited,
		Launches:         2 * r.Rounds,
		ParallelFraction: 1, // per-kernel serialization is the launch latency
		IrregularityCV:   cv,
	}
}

// ccGPUTime is the device-parametric GPU cost of Shiloach–Vishkin on
// a whole graph.
func ccGPUTime(dev *hetsim.Device, g *graph.Graph, r *graph.CCResult) time.Duration {
	if g.N == 0 {
		return 0
	}
	return dev.Time(svKernel(r, g.DegreeCV()))
}

// ccGPUTimeRange is ccGPUTime on the range subgraph [lo, hi), with its
// degree CV computed through the split indexes.
func ccGPUTimeRange(dev *hetsim.Device, lower, upper []int32, lo, hi int, arcs int64, r *graph.CCResult) time.Duration {
	if hi == lo {
		return 0
	}
	return dev.Time(svKernel(r, degreeCVRange(lower, upper, lo, hi, arcs)))
}

// RunGPUOnly is the paper's "Naive" homogeneous baseline: the whole
// graph is shipped to the first accelerator and processed by
// Shiloach–Vishkin, with no partitioning. Of the device times it sets
// GPUTime only. The kernel is the runner's range kernel over the whole
// vertex range [0, n), where every row starts at its first arc.
func (a *Algorithm) RunGPUOnly(g *graph.Graph) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("hetcc: nil graph")
	}
	res := &Result{}
	var svRes graph.CCResult
	graph.ShiloachVishkinRangeInto(g.RowPtr, g.Adj, make([]int32, g.N), 0, g.N, &svRes, new(graph.CCScratch))
	transferIn := a.Platform.Link.Transfer(int64(4 * g.Arcs()))
	gpuTime := ccGPUTime(a.Platform.GPUs[0], g, &svRes)
	transferOut := a.Platform.Link.Transfer(4 * int64(g.N))
	res.Trace.Add(hetsim.PhaseTransfer, "link", transferIn+transferOut)
	res.Trace.Add(hetsim.PhaseCompute, "gpu", gpuTime)
	res.Labels = svRes.Labels
	res.Components = svRes.Components
	res.GPUTime = transferIn + gpuTime
	res.Time = transferIn + gpuTime + transferOut
	return res, nil
}

// DefaultSampleSize returns the paper's sample size for CC: √n.
func DefaultSampleSize(n int) int {
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}
