package repro

// Golden equivalence suite for the tuned kernels. Every optimized
// kernel in internal/sparse and internal/graph has a frozen reference
// implementation (reference.go in each package) carrying the pre-tuning
// body; these tests pin the tuned kernels bit-identical to the
// references on one Table II instance per structural class (the CC
// kernels on a prefix or range of the graph, against the reference on
// the materialized part):
//
//	cant          — FEM (banded, near-regular rows)
//	webbase-1M    — power-law (skewed degrees, wide columns)
//	germany_osm   — road (huge diameter, tiny degrees)
//	delaunay_n22  — delaunay mesh (near-regular, planar-ish)
//
// "Bit-identical" is literal: integer outputs are compared exactly, and
// the connected-components results are compared as whole structs
// including the work counters that feed the device models.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// goldenDatasets names one dataset per structural class.
var goldenDatasets = []string{"cant", "webbase-1M", "germany_osm", "delaunay_n22"}

func goldenMatrix(t *testing.T, name string) *sparse.CSR {
	t.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%q): %v", name, err)
	}
	m, err := d.Matrix()
	if err != nil {
		t.Fatalf("Matrix(%q): %v", name, err)
	}
	return m
}

func goldenGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%q): %v", name, err)
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatalf("Graph(%q): %v", name, err)
	}
	return g
}

// TestGoldenLoadVector pins the index-accelerated load-vector and
// symbolic row-count kernels to their reference scans on A×A.
func TestGoldenLoadVector(t *testing.T) {
	for _, name := range goldenDatasets {
		t.Run(name, func(t *testing.T) {
			m := goldenMatrix(t, name)
			got, err := sparse.LoadVector(m, m)
			if err != nil {
				t.Fatalf("LoadVector: %v", err)
			}
			want, err := sparse.LoadVectorRef(m, m)
			if err != nil {
				t.Fatalf("LoadVectorRef: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("load vector differs from reference")
			}

			counts, total, err := sparse.RowOutputCounts(nil, m, m)
			if err != nil {
				t.Fatalf("RowOutputCounts: %v", err)
			}
			wantCounts, wantTotal, err := sparse.RowOutputCountsRef(m, m)
			if err != nil {
				t.Fatalf("RowOutputCountsRef: %v", err)
			}
			if total != wantTotal {
				t.Fatalf("output nnz total = %d, reference %d", total, wantTotal)
			}
			if !reflect.DeepEqual(counts, wantCounts) {
				t.Fatalf("row output counts differ from reference")
			}
		})
	}
}

// TestGoldenSplitRowByWork pins the prefix-sum binary search the
// profiles call to the reference linear scan over the full threshold
// grid the Identify stage sweeps.
func TestGoldenSplitRowByWork(t *testing.T) {
	for _, name := range goldenDatasets {
		t.Run(name, func(t *testing.T) {
			m := goldenMatrix(t, name)
			load, err := sparse.LoadVector(m, m)
			if err != nil {
				t.Fatalf("LoadVector: %v", err)
			}
			prefix := make([]int64, len(load)+1)
			for i, v := range load {
				prefix[i+1] = prefix[i] + v
			}
			for tt := 0; tt <= 100; tt++ {
				frac := float64(tt) / 100
				want := sparse.SplitRowByWorkRef(load, frac)
				if got := sparse.SplitRowByWorkPrefix(prefix, frac); got != want {
					t.Fatalf("SplitRowByWorkPrefix(%v) = %d, reference %d", frac, got, want)
				}
			}
		})
	}
}

// TestGoldenConnectedComponents pins the three CC kernels the runner
// serves (DFSPrefixInto, ParallelCPUPrefixInto, ShiloachVishkinRangeInto)
// to the frozen references on the materialized part: identical labels,
// component counts AND work counters. The counters feed the hetsim cost
// models, so any drift would silently change every simulated time and
// search result.
func TestGoldenConnectedComponents(t *testing.T) {
	for _, name := range goldenDatasets {
		t.Run(name, func(t *testing.T) {
			g := goldenGraph(t, name)
			n := g.N
			check := func(kernel string, got, want *graph.CCResult) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s diverges from reference:\n got %+v\nwant %+v",
						kernel, summarize(got), summarize(want))
				}
			}
			var got, want graph.CCResult
			for _, bound := range []int{0, n / 3, n / 2, n} {
				split, part := splitIndex(g, bound), rangeGraph(g, 0, bound)
				graph.DFSPrefixInto(g.RowPtr, g.Adj, split, bound, &got, new(graph.CCScratch))
				graph.DFSRef(part, &want, new(graph.CCScratch))
				check(fmt.Sprintf("DFSPrefixInto(bound=%d)", bound), &got, &want)
				for _, workers := range []int{1, 4, 7} {
					graph.ParallelCPUPrefixInto(g.RowPtr, g.Adj, split, bound, workers, &got, new(graph.CCScratch))
					graph.ParallelCPURef(part, workers, &want, new(graph.CCScratch))
					check(fmt.Sprintf("ParallelCPUPrefixInto(bound=%d, workers=%d)", bound, workers), &got, &want)
				}
			}
			for _, r := range [][2]int{{0, n}, {n / 3, 2 * n / 3}, {n / 2, n}} {
				lo, hi := r[0], r[1]
				graph.ShiloachVishkinRangeInto(g.RowPtr, g.Adj, splitIndex(g, lo), lo, hi, &got, new(graph.CCScratch))
				graph.ShiloachVishkinRef(rangeGraph(g, lo, hi), &want, new(graph.CCScratch))
				check(fmt.Sprintf("ShiloachVishkinRangeInto[%d, %d)", lo, hi), &got, &want)
			}
		})
	}
}

// splitIndex returns, for every row of g, the position of its first
// neighbor >= bound: the prefix kernels' split index for the prefix
// [0, bound), and the range kernel's lower index for a range starting
// at bound.
func splitIndex(g *graph.Graph, bound int) []int32 {
	split := make([]int32, g.N)
	for u := range split {
		k, _ := slices.BinarySearch(g.Neighbors(u), int32(bound))
		split[u] = int32(k)
	}
	return split
}

// rangeGraph materializes the subgraph induced by the vertex range
// [lo, hi) of g, renumbered from zero: the part a reference kernel
// runs on.
func rangeGraph(g *graph.Graph, lo, hi int) *graph.Graph {
	rowPtr := make([]int64, hi-lo+1)
	var adj []int32
	l, h := int32(lo), int32(hi)
	for u := lo; u < hi; u++ {
		for _, v := range g.Neighbors(u) {
			if v >= l && v < h {
				adj = append(adj, v-l)
			}
		}
		rowPtr[u-lo+1] = int64(len(adj))
	}
	return &graph.Graph{N: hi - lo, RowPtr: rowPtr, Adj: adj}
}

// summarize renders a CCResult without the label vector for failure
// messages.
func summarize(r *graph.CCResult) map[string]any {
	return map[string]any{
		"components": r.Components,
		"vertices":   r.VerticesVisited,
		"edges":      r.EdgesVisited,
		"rounds":     r.Rounds,
		"labels_len": len(r.Labels),
	}
}
