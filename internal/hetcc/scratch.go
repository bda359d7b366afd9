package hetcc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/hetsim"
)

// splitScratch is the reusable working memory of one heterogeneous CC
// run on any number of devices: the cut vector, the per-row split
// indexes, the cross-edge list, one kernel scratch shared by every
// device phase, and the merge buffers. An Identify sweep or a simplex
// search evaluates the same graph at dozens of partitions; pooling one
// scratch per search worker makes each evaluation allocation-free after
// the first.
//
// A scratch serves one run at a time; the labels, device times and
// trace a run produced alias it and stay valid only until its next use.
type splitScratch struct {
	// cuts[i] and cuts[i+1] bound device i's vertex range; device 0 is
	// the CPU prefix.
	cuts []int
	// lower[u] and upper[u] delimit row u's arcs inside its own
	// device's range: positions [lower[u], upper[u]) of the row hold
	// exactly the neighbors in that range (adjacency lists are
	// sorted). Arcs past upper[u] are cross edges to a later range.
	// The kernels and cost models read the original CSR through these
	// indexes, so no per-device sub-CSR is ever built. CPU rows always
	// have lower[u] == 0, so upper doubles as the prefix kernel's
	// split index.
	lower, upper []int32
	// arcs[i] is the arc count of device i's range subgraph.
	arcs  []int64
	cross []graph.Edge

	res graph.CCResult
	cc  graph.CCScratch

	labels      []int32
	uf          graph.UnionFind
	minOf       []int32
	deviceTimes []time.Duration
	trace       []hetsim.TraceEntry
}

// scratchPool recycles run scratches across Workload evaluations;
// each concurrent evaluation checks one out for the duration of a run.
var scratchPool = sync.Pool{New: func() any { return new(splitScratch) }}

// multiNames caches the trace names "gpu0", "gpu1", ... so a run does
// not format them on every evaluation.
var multiNames = func() []string {
	out := make([]string, 16)
	for i := range out {
		out[i] = fmt.Sprintf("gpu%d", i)
	}
	return out
}()

// accelName returns the trace device name of accelerator i of n:
// "gpu" for a single one, "gpu0", "gpu1", ... for more.
func accelName(n, i int) string {
	if n == 1 {
		return "gpu"
	}
	if i < len(multiNames) {
		return multiNames[i]
	}
	return fmt.Sprintf("gpu%d", i)
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// adjLowerBound returns the first index in the sorted adjacency list
// whose neighbor id is >= bound. Short lists (the common case on road
// and mesh graphs) are scanned linearly — fewer branches and no
// closure than sort.Search; long lists binary-search.
func adjLowerBound(adj []int32, bound int32) int {
	if len(adj) <= 16 {
		k := 0
		for k < len(adj) && adj[k] < bound {
			k++
		}
		return k
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitRanges computes the per-row split indexes of g under s.cuts,
// each range's arc count, and the cross edges in (u ascending, v
// ascending) order with u < v.
func (s *splitScratch) splitRanges(g *graph.Graph) {
	nDev := len(s.cuts) - 1
	s.lower = growInt32(s.lower, g.N)
	s.upper = growInt32(s.upper, g.N)
	if cap(s.arcs) < nDev {
		s.arcs = make([]int64, nDev)
	}
	s.arcs = s.arcs[:nDev]
	s.cross = s.cross[:0]
	rp, adj := g.RowPtr, g.Adj
	for i := 0; i < nDev; i++ {
		lo, hi := int32(s.cuts[i]), int32(s.cuts[i+1])
		var arcs int64
		for u := s.cuts[i]; u < s.cuts[i+1]; u++ {
			row := adj[rp[u]:rp[u+1]]
			// Sorted rows: an end neighbor already inside the range
			// settles that side without a search — the common case
			// away from the cuts on locality-ordered graphs.
			a, b := 0, len(row)
			if b > 0 && row[0] < lo {
				a = adjLowerBound(row, lo)
			}
			if b > 0 && row[b-1] >= hi {
				b = a + adjLowerBound(row[a:], hi)
				for _, v := range row[b:] {
					s.cross = append(s.cross, graph.Edge{U: int32(u), V: v})
				}
			}
			s.lower[u], s.upper[u] = int32(a), int32(b)
			arcs += int64(b - a)
		}
		s.arcs[i] = arcs
	}
}

// addTrace records one phase of the run in the scratch's entry slice;
// runInto hands that slice to the result's Trace.
func (s *splitScratch) addTrace(phase, device string, d time.Duration) {
	s.trace = append(s.trace, hetsim.TraceEntry{Phase: phase, Device: device, Duration: d})
}

// mergeLabelsInto unifies the range-local labelings already placed in
// labels (global ids) over the cross edges with a union–find, then
// canonicalizes to minimum-vertex-id labels. It returns the component
// count, picked up for free during canonicalization.
func mergeLabelsInto(labels []int32, cross []graph.Edge, s *splitScratch) int {
	s.uf.Reset(len(labels))
	for _, e := range cross {
		s.uf.Union(int(labels[e.U]), int(labels[e.V]))
	}
	s.minOf = growInt32(s.minOf, len(labels))
	return graph.CanonicalizeRootsInto(labels, &s.uf, s.minOf)
}

// run executes heterogeneous CC on g with the vertex ranges in s.cuts,
// one per device of a's platform, and returns the global labels, the
// component count and the simulated wall-clock time. The per-device phase
// durations are left in s.deviceTimes, the cross edges in s.cross and
// the phase timeline in s.trace.
//
// Every device reads the original CSR through the split indexes: the
// CPU runs its prefix with graph.ParallelCPUPrefixInto, each
// accelerator its range with graph.ShiloachVishkinRangeInto, and the
// cost models charge the work those kernels actually performed —
// durations identical to materializing every range subgraph. The
// cross-edge merge runs on the first accelerator (Algorithm 1 line 9).
func (s *splitScratch) run(g *graph.Graph, a *Algorithm) (labels []int32, components int, total time.Duration) {
	nDev := len(s.cuts) - 1
	cpu, accs, link, threads := a.Platform.CPU, a.Platform.GPUs, a.Platform.Link, a.Platform.CPU.Spec.Cores
	s.trace = s.trace[:0]

	// --- Phase I: partition -------------------------------------------
	// Splitting the CSR structure scans every vertex and arc once on
	// the CPU (memory-bound streaming pass). The host only computes
	// the split indexes and cross edges; the simulated charge models
	// the device's full split pass.
	s.splitRanges(g)
	partTime := cpu.Time(hetsim.Kernel{
		Name:             "partition",
		Ops:              int64(g.N) + int64(g.Arcs()),
		Bytes:            8 * int64(g.Arcs()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	s.addTrace(hetsim.PhasePartition, "cpu", partTime)

	// --- Phase II: overlapped per-device compute -----------------------
	if cap(s.deviceTimes) < nDev {
		s.deviceTimes = make([]time.Duration, nDev)
	}
	s.deviceTimes = s.deviceTimes[:nDev]
	s.labels = growInt32(s.labels, g.N)
	labels = s.labels
	rp, adj := g.RowPtr, g.Adj

	nCPU := s.cuts[1]
	crossArcs := graph.ParallelCPUPrefixInto(rp, adj, s.upper, nCPU, threads, &s.res, &s.cc)
	cpuTime := ccCPUTimeSplit(cpu, threads, s.upper, nCPU, s.arcs[0], crossArcs)
	s.addTrace(hetsim.PhaseCompute, "cpu", cpuTime)
	copy(labels, s.res.Labels)
	s.deviceTimes[0] = cpuTime
	wall := hetsim.Overlap(0, cpuTime)

	for i, dev := range accs {
		lo, hi := s.cuts[i+1], s.cuts[i+2]
		graph.ShiloachVishkinRangeInto(rp, adj, s.lower, lo, hi, &s.res, &s.cc)
		transferIn := link.Transfer(4 * s.arcs[i+1])
		compute := ccGPUTimeRange(dev, s.lower, s.upper, lo, hi, s.arcs[i+1], &s.res)
		s.addTrace(hetsim.PhaseTransfer, "link", transferIn)
		s.addTrace(hetsim.PhaseCompute, accelName(len(accs), i), compute)
		base := int32(lo)
		for v, l := range s.res.Labels {
			labels[lo+v] = l + base
		}
		s.deviceTimes[i+1] = transferIn + compute
		wall = hetsim.Overlap(wall, transferIn+compute)
	}

	// --- Merge: cross edges unify the labelings -------------------------
	components = mergeLabelsInto(labels, s.cross, s)
	mergeTime := accs[0].Time(hetsim.Kernel{
		Name:             "merge",
		Ops:              12 * int64(len(s.cross)), // finds + union per edge
		Bytes:            8 * int64(len(s.cross)),
		Launches:         1,
		ParallelFraction: 1,   // lock-free parallel union-find
		IrregularityCV:   1.0, // pointer chasing
	})
	s.addTrace(hetsim.PhaseMerge, accelName(len(accs), 0), mergeTime)
	transferOut := link.Transfer(4 * int64(g.N))
	s.addTrace(hetsim.PhaseTransfer, "link", transferOut)

	return labels, components, partTime + wall + mergeTime + transferOut
}
