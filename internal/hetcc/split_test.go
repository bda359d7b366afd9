package hetcc

// Equivalence tests for the split-index partition path. runInto no
// longer materializes G_CPU / G_GPU: splitRowsInto computes only the
// per-row split positions, and the masked kernels plus the *Split cost
// models consume the original CSR through them. These tests pin that
// path to partitionInto's materialized sub-CSRs — same arc counts,
// same cross edges, bit-identical degree CVs and charged durations.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/hetsim"
)

func splitTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, cfg := range []graph.GenGraphConfig{
		{Kind: graph.KindGNM, N: 2500, M: 8000, Seed: 21},
		{Kind: graph.KindRMAT, N: 4096, M: 14000, Seed: 22},
		{Kind: graph.KindRoad, N: 2500, M: 5000, Seed: 23},
		{Kind: graph.KindMesh, N: 2500, M: 7500, Seed: 24},
	} {
		g, err := graph.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%v): %v", cfg.Kind, err)
		}
		out[cfg.Kind.String()] = g
	}
	return out
}

func splitTestBounds(n int) []int {
	return []int{0, 1, n / 4, n / 2, 3 * n / 4, n - 1, n}
}

func TestSplitRowsMatchesPartition(t *testing.T) {
	for name, g := range splitTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, nCPU := range splitTestBounds(g.N) {
				var mat, idx runScratch
				if err := partitionInto(g, nCPU, &mat); err != nil {
					t.Fatalf("partitionInto(%d): %v", nCPU, err)
				}
				if err := splitRowsInto(g, nCPU, &idx); err != nil {
					t.Fatalf("splitRowsInto(%d): %v", nCPU, err)
				}
				if idx.cpuArcs != int64(mat.gCPU.Arcs()) {
					t.Fatalf("nCPU %d: cpuArcs = %d, materialized G_CPU has %d",
						nCPU, idx.cpuArcs, mat.gCPU.Arcs())
				}
				if idx.gpuArcs != int64(mat.gGPU.Arcs()) {
					t.Fatalf("nCPU %d: gpuArcs = %d, materialized G_GPU has %d",
						nCPU, idx.gpuArcs, mat.gGPU.Arcs())
				}
				if !reflect.DeepEqual(idx.cross, mat.cross) {
					t.Fatalf("nCPU %d: cross edges differ (%d vs %d)",
						nCPU, len(idx.cross), len(mat.cross))
				}
				for u := 0; u < nCPU; u++ {
					if int(idx.split[u]) != mat.gCPU.Degree(u) {
						t.Fatalf("nCPU %d: split[%d] = %d, G_CPU degree %d",
							nCPU, u, idx.split[u], mat.gCPU.Degree(u))
					}
				}
				for u := nCPU; u < g.N; u++ {
					kept := g.Degree(u) - int(idx.split[u])
					if kept != mat.gGPU.Degree(u-nCPU) {
						t.Fatalf("nCPU %d: suffix row %d keeps %d arcs, G_GPU degree %d",
							nCPU, u, kept, mat.gGPU.Degree(u-nCPU))
					}
				}
			}
		})
	}
}

// TestDegreeCVSplitMatchesGraph pins the split-indexed degree CVs to
// graph.DegreeCV on the materialized partitions — exact float equality,
// since the cost models' IrregularityCV feeds simulated durations that
// must not depend on which partition representation ran.
func TestDegreeCVSplitMatchesGraph(t *testing.T) {
	for name, g := range splitTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, nCPU := range splitTestBounds(g.N) {
				var s runScratch
				if err := partitionInto(g, nCPU, &s); err != nil {
					t.Fatalf("partitionInto(%d): %v", nCPU, err)
				}
				if err := splitRowsInto(g, nCPU, &s); err != nil {
					t.Fatalf("splitRowsInto(%d): %v", nCPU, err)
				}
				if got, want := degreeCVPrefix(s.split, nCPU, s.cpuArcs), s.gCPU.DegreeCV(); got != want {
					t.Fatalf("nCPU %d: degreeCVPrefix = %x, G_CPU DegreeCV = %x", nCPU, got, want)
				}
				if got, want := degreeCVSuffix(g.RowPtr, s.split, nCPU, g.N, s.gpuArcs), s.gGPU.DegreeCV(); got != want {
					t.Fatalf("nCPU %d: degreeCVSuffix = %x, G_GPU DegreeCV = %x", nCPU, got, want)
				}
			}
		})
	}
}

// TestCostModelSplitEquivalence pins ccCPUTimeSplit / ccGPUTimeSplit to
// the graph-based models on the materialized partitions: identical
// charged durations, nanosecond for nanosecond.
func TestCostModelSplitEquivalence(t *testing.T) {
	plat := hetsim.Default()
	for name, g := range splitTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, nCPU := range splitTestBounds(g.N) {
				var s runScratch
				if err := partitionInto(g, nCPU, &s); err != nil {
					t.Fatalf("partitionInto(%d): %v", nCPU, err)
				}
				if err := splitRowsInto(g, nCPU, &s); err != nil {
					t.Fatalf("splitRowsInto(%d): %v", nCPU, err)
				}
				for _, c := range []int{1, 2, 4, 7} {
					// crossArcs comes from the kernel itself, as in the
					// runner: the count its merge pass (or DFS-fallback
					// scan) produces must reproduce the materialized
					// model's own cross-part scan exactly.
					var cpuRes graph.CCResult
					crossArcs := graph.ParallelCPUPrefixInto(g.RowPtr, g.Adj, s.split, nCPU, c, &cpuRes, new(graph.CCScratch))
					got := ccCPUTimeSplit(plat.CPU, c, s.split, nCPU, s.cpuArcs, crossArcs)
					want := ccCPUTime(plat.CPU, c, &s.gCPU)
					if got != want {
						t.Fatalf("nCPU %d threads %d: ccCPUTimeSplit = %v, ccCPUTime = %v",
							nCPU, c, got, want)
					}
				}
				var svRes graph.CCResult
				graph.ShiloachVishkinRangeInto(g.RowPtr, g.Adj, s.split, nCPU, g.N, &svRes, new(graph.CCScratch))
				got := ccGPUTimeSplit(plat.GPUs[0], g, s.split, nCPU, s.gpuArcs, &svRes)
				want := ccGPUTime(plat.GPUs[0], &s.gGPU, &svRes)
				if got != want {
					t.Fatalf("nCPU %d: ccGPUTimeSplit = %v, ccGPUTime = %v", nCPU, got, want)
				}
				if nCPU == g.N && got != time.Duration(0) {
					t.Fatalf("empty GPU partition must charge zero, got %v", got)
				}
			}
		})
	}
}
