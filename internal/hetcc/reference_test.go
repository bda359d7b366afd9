package hetcc

// Frozen references for the split-index runner. The runner never
// materializes a device's subgraph; these are the materializing forms
// it replaced, kept only as correctness oracles:
//
//   - refMultiRun is the N-device Algorithm.Run as it was before
//     the runners merged: every device's subgraph rebuilt through
//     graph.FromEdges, the frozen reference CPU and Shiloach–Vishkin
//     kernels on each part, and map-based label canonicalization;
//   - partitionInto and ccCPUTime are the materialized two-device
//     partition and the graph-based CPU cost model;
//   - runScratch, splitRowsInto, degreeCVSuffix and ccGPUTimeSplit
//     present the runner's split indexes in the two-device shape the
//     equivalence tests in split_test.go check.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetsim"
)

// runScratch holds a materialized two-device partition (partitionInto)
// or the runner's split-index view of it (splitRowsInto): split[u] is
// the one boundary of row u — its G_CPU arc count for u < nCPU, the
// position of its first G_GPU arc otherwise.
type runScratch struct {
	splitScratch
	gCPU, gGPU       graph.Graph
	split            []int32
	cpuArcs, gpuArcs int64
}

// partitionInto splits g at vertex nCPU into G_CPU (vertices
// [0, nCPU)), G_GPU (vertices [nCPU, n), renumbered from 0) and the
// cross-edge list (original ids, u < nCPU <= v), all freshly copied.
func partitionInto(g *graph.Graph, nCPU int, s *runScratch) error {
	if nCPU < 0 || nCPU > g.N {
		return fmt.Errorf("hetcc: split %d outside [0, %d]", nCPU, g.N)
	}
	nGPU := g.N - nCPU
	cpuRowPtr := make([]int64, nCPU+1)
	gpuRowPtr := make([]int64, nGPU+1)
	var cpuAdj, gpuAdj []int32
	s.cross = nil
	bound := int32(nCPU)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			switch {
			case u < nCPU && v < bound:
				cpuAdj = append(cpuAdj, v)
			case u < nCPU:
				s.cross = append(s.cross, graph.Edge{U: int32(u), V: v})
			case v >= bound:
				gpuAdj = append(gpuAdj, v-bound)
			}
		}
		if u < nCPU {
			cpuRowPtr[u+1] = int64(len(cpuAdj))
		} else {
			gpuRowPtr[u-nCPU+1] = int64(len(gpuAdj))
		}
	}
	s.gCPU = graph.Graph{N: nCPU, RowPtr: cpuRowPtr, Adj: cpuAdj}
	s.gGPU = graph.Graph{N: nGPU, RowPtr: gpuRowPtr, Adj: gpuAdj}
	return nil
}

// splitRowsInto runs the runner's splitter on the two-device cut
// vector {0, nCPU, n} and exposes its result in the runScratch view.
func splitRowsInto(g *graph.Graph, nCPU int, s *runScratch) error {
	if nCPU < 0 || nCPU > g.N {
		return fmt.Errorf("hetcc: split %d outside [0, %d]", nCPU, g.N)
	}
	s.cuts = append(s.cuts[:0], 0, nCPU, g.N)
	s.splitRanges(g)
	s.split = make([]int32, g.N)
	copy(s.split[:nCPU], s.upper[:nCPU])
	copy(s.split[nCPU:], s.lower[nCPU:])
	s.cpuArcs, s.gpuArcs = s.arcs[0], s.arcs[1]
	return nil
}

// rowEnds returns every row's length, the upper index of a suffix
// range that reaches n.
func rowEnds(rowPtr []int64, n int) []int32 {
	ends := make([]int32, n)
	for u := range ends {
		ends[u] = int32(rowPtr[u+1] - rowPtr[u])
	}
	return ends
}

// degreeCVSuffix is degreeCVRange on the suffix [bound, n).
func degreeCVSuffix(rowPtr []int64, split []int32, bound, n int, arcs int64) float64 {
	return degreeCVRange(split, rowEnds(rowPtr, n), bound, n, arcs)
}

// ccGPUTimeSplit is ccGPUTimeRange on the suffix [nCPU, n).
func ccGPUTimeSplit(dev *hetsim.Device, g *graph.Graph, split []int32, nCPU int, gpuArcs int64, r *graph.CCResult) time.Duration {
	return ccGPUTimeRange(dev, split, rowEnds(g.RowPtr, g.N), nCPU, g.N, gpuArcs, r)
}

// ccCPUTime is the graph-based CPU cost of the partitioned
// multi-threaded DFS on a materialized G_CPU.
func ccCPUTime(dev *hetsim.Device, c int, gCPU *graph.Graph) time.Duration {
	if gCPU.N == 0 {
		return 0
	}
	var crossPart int64
	for w := 0; w < c; w++ {
		lo := w * gCPU.N / c
		hi := (w + 1) * gCPU.N / c
		for u := lo; u < hi; u++ {
			adj := gCPU.Neighbors(u)
			inPart := adjLowerBound(adj, int32(hi)) - adjLowerBound(adj, int32(lo))
			crossPart += int64(len(adj) - inPart)
		}
	}
	const dfsOpsPerArc = 40
	arcs := int64(gCPU.Arcs())
	dfs := hetsim.Kernel{
		Name:             "cc-dfs",
		Ops:              dfsOpsPerArc * arcs,
		Bytes:            9 * arcs,
		Launches:         c,
		IrregularityCV:   gCPU.DegreeCV(),
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

// refMultiRun is the materializing N-device runner.
func refMultiRun(a *Algorithm, g *graph.Graph, p core.Partition) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("hetcc: nil graph")
	}
	if err := p.ValidateFor(a.Platform.Devices(), "the platform"); err != nil {
		return nil, err
	}
	nDev := len(p)
	cuts := make([]int, nDev+1)
	acc := 0.0
	for i, s := range p {
		acc += s
		cuts[i+1] = int(float64(g.N) * acc / 100)
		if cuts[i+1] > g.N {
			cuts[i+1] = g.N
		}
	}
	cuts[nDev] = g.N

	res := &Result{DeviceTimes: make([]time.Duration, nDev)}
	partTime := a.Platform.CPU.Time(hetsim.Kernel{
		Name:             "partition",
		Ops:              int64(g.N) + int64(g.Arcs()),
		Bytes:            8 * int64(g.Arcs()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	res.Trace.Add(hetsim.PhasePartition, "cpu", partTime)

	parts, cross, err := refPartitionMulti(g, cuts)
	if err != nil {
		return nil, err
	}
	res.CrossEdges = int64(len(cross))

	results := make([]*graph.CCResult, nDev)
	var wall time.Duration
	for i, part := range parts {
		var dt time.Duration
		if i == 0 {
			results[i] = new(graph.CCResult)
			graph.ParallelCPURef(part, a.Platform.CPU.Spec.Cores, results[i], new(graph.CCScratch))
			dt = ccCPUTime(a.Platform.CPU, a.Platform.CPU.Spec.Cores, part)
			res.Trace.Add(hetsim.PhaseCompute, "cpu", dt)
		} else {
			results[i] = new(graph.CCResult)
			graph.ShiloachVishkinRef(part, results[i], new(graph.CCScratch))
			transferIn := a.Platform.Link.Transfer(int64(4 * part.Arcs()))
			dt = transferIn + ccGPUTime(a.Platform.GPUs[i-1], part, results[i])
			res.Trace.Add(hetsim.PhaseTransfer, "link", transferIn)
			res.Trace.Add(hetsim.PhaseCompute, refAccelName(nDev-1, i-1), dt-transferIn)
		}
		res.DeviceTimes[i] = dt
		wall = hetsim.Overlap(wall, dt)
	}

	labels := refMergeMulti(g, cuts, results, cross)
	mergeDev := a.Platform.CPU
	mergeTarget := "cpu"
	if len(a.Platform.GPUs) > 0 {
		mergeDev = a.Platform.GPUs[0]
		mergeTarget = refAccelName(nDev-1, 0)
	}
	mergeTime := mergeDev.Time(hetsim.Kernel{
		Name:             "merge",
		Ops:              12 * int64(len(cross)),
		Bytes:            8 * int64(len(cross)),
		Launches:         1,
		ParallelFraction: 1,
		IrregularityCV:   1.0,
	})
	res.Trace.Add(hetsim.PhaseMerge, mergeTarget, mergeTime)
	transferOut := a.Platform.Link.Transfer(4 * int64(g.N))
	res.Trace.Add(hetsim.PhaseTransfer, "link", transferOut)

	res.Labels = labels
	res.Components = graph.NumComponents(labels)
	res.Time = partTime + wall + mergeTime + transferOut
	return res, nil
}

// refAccelName names accelerator i of n in traces: "gpu" when it is
// the only one.
func refAccelName(n, i int) string {
	if n == 1 {
		return "gpu"
	}
	return fmt.Sprintf("gpu%d", i)
}

// refPartitionMulti splits g into len(cuts)-1 contiguous vertex ranges
// (each renumbered from 0) and returns the edges crossing any boundary
// in original ids.
func refPartitionMulti(g *graph.Graph, cuts []int) ([]*graph.Graph, []graph.Edge, error) {
	nDev := len(cuts) - 1
	partOf := func(v int) int {
		for i := 1; i <= nDev; i++ {
			if v < cuts[i] {
				return i - 1
			}
		}
		return nDev - 1
	}
	edgeLists := make([][]graph.Edge, nDev)
	var cross []graph.Edge
	for u := 0; u < g.N; u++ {
		pu := partOf(u)
		for _, v := range g.Neighbors(u) {
			if int32(u) > v {
				continue
			}
			pv := partOf(int(v))
			if pu == pv {
				edgeLists[pu] = append(edgeLists[pu], graph.Edge{
					U: int32(u - cuts[pu]), V: v - int32(cuts[pu]),
				})
			} else {
				cross = append(cross, graph.Edge{U: int32(u), V: v})
			}
		}
	}
	parts := make([]*graph.Graph, nDev)
	for i := range parts {
		var err error
		parts[i], err = graph.FromEdges(cuts[i+1]-cuts[i], edgeLists[i])
		if err != nil {
			return nil, nil, err
		}
	}
	return parts, cross, nil
}

// refMergeMulti combines the per-part labelings into a global one.
func refMergeMulti(g *graph.Graph, cuts []int, results []*graph.CCResult, cross []graph.Edge) []int32 {
	labels := make([]int32, g.N)
	for i, r := range results {
		base := int32(cuts[i])
		for v, l := range r.Labels {
			labels[cuts[i]+v] = l + base
		}
	}
	var uf graph.UnionFind
	uf.Reset(g.N)
	for _, e := range cross {
		uf.Union(int(labels[e.U]), int(labels[e.V]))
	}
	for v := range labels {
		labels[v] = int32(uf.Find(int(labels[v])))
	}
	minOf := make(map[int32]int32)
	for v, l := range labels {
		if cur, ok := minOf[l]; !ok || int32(v) < cur {
			minOf[l] = int32(v)
		}
	}
	for v := range labels {
		labels[v] = minOf[labels[v]]
	}
	return labels
}

// sameResult reports the first field in which two results differ.
func sameResult(got, want *Result) string {
	switch {
	case !slices.Equal(got.Labels, want.Labels):
		return "Labels"
	case got.Components != want.Components:
		return fmt.Sprintf("Components %d vs %d", got.Components, want.Components)
	case !slices.Equal(got.DeviceTimes, want.DeviceTimes):
		return fmt.Sprintf("DeviceTimes %v vs %v", got.DeviceTimes, want.DeviceTimes)
	case got.CrossEdges != want.CrossEdges:
		return fmt.Sprintf("CrossEdges %d vs %d", got.CrossEdges, want.CrossEdges)
	case got.Time != want.Time:
		return fmt.Sprintf("Time %v vs %v", got.Time, want.Time)
	case !reflect.DeepEqual(got.Trace.Entries, want.Trace.Entries):
		return fmt.Sprintf("Trace %v vs %v", got.Trace.Entries, want.Trace.Entries)
	}
	return ""
}

// TestMultiRunMatchesReference pins Algorithm.Run to the frozen
// materializing runner — labels, component count, per-device times,
// cross edges, total time and trace — on every generator family, for
// 1 to 3 accelerators, over share vectors with empty and one-vertex
// ranges.
func TestMultiRunMatchesReference(t *testing.T) {
	graphs := []*graph.Graph{
		testGraph(t, graph.KindGNM, 1500, 4000, 51),
		testGraph(t, graph.KindRMAT, 2048, 9000, 52),
		testGraph(t, graph.KindRoad, 1600, 3200, 53),
		testGraph(t, graph.KindMesh, 1500, 4500, 54),
		testGraph(t, graph.KindGNM, 3, 2, 55),
		{N: 0, RowPtr: []int64{0}},
	}
	for accs := 1; accs <= 3; accs++ {
		alg := NewMultiAlgorithm(hetsim.DefaultMulti(accs))
		var parts []core.Partition
		for a := 0; a <= 100; a += 20 {
			p := make(core.Partition, accs+1)
			p[0] = float64(a)
			rest := float64(100-a) / float64(accs)
			for i := 1; i <= accs; i++ {
				p[i] = rest
			}
			parts = append(parts, p)
			// All of the remainder on the last accelerator: every
			// middle range is empty.
			q := make(core.Partition, accs+1)
			q[0], q[accs] = float64(a), float64(100-a)
			parts = append(parts, q)
		}
		parts = append(parts, append(core.Partition{0.05}, make(core.Partition, accs)...))
		parts[len(parts)-1][accs] = 99.95
		for gi, g := range graphs {
			for _, p := range parts {
				got, err := alg.Run(g, p)
				if err != nil {
					t.Fatalf("graph %d %v: %v", gi, p, err)
				}
				want, err := refMultiRun(alg, g, p)
				if err != nil {
					t.Fatalf("graph %d %v: reference: %v", gi, p, err)
				}
				if diff := sameResult(got, want); diff != "" {
					t.Fatalf("graph %d, %d accelerators, %v: %s differs from the reference", gi, accs, p, diff)
				}
			}
		}
	}
}
