package graph

// Equivalence tests for the masked (split-indexed) CC kernels. The
// heterogeneous CC hot path never materializes the partition sub-CSRs:
// DFSPrefixInto / ParallelCPUPrefixInto run on the first split[u] arcs
// of each row, and ShiloachVishkinRangeInto on any vertex range with
// renumbered ids. These tests pin each masked kernel to its frozen
// reference running on the explicitly materialized subgraph — full
// CCResult equality, work counters included, across every generator
// family and a sweep of partition bounds.

import (
	"reflect"
	"testing"

	"repro/internal/sparse"
	"repro/internal/stats"
)

// maskedTestGraphs builds one modest instance of each generator family.
func maskedTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	out := make(map[string]*Graph)
	for _, cfg := range []GenGraphConfig{
		{Kind: KindGNM, N: 3000, M: 9000, Seed: 11},
		{Kind: KindRMAT, N: 4096, M: 16384, Seed: 12},
		{Kind: KindRoad, N: 3600, M: 7200, Seed: 13},
		{Kind: KindMesh, N: 3000, M: 9000, Seed: 14},
	} {
		g, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%v): %v", cfg.Kind, err)
		}
		out[cfg.Kind.String()] = g
	}
	return out
}

// splitAt returns split[u] = first position in row u whose neighbor id
// is >= bound, for every row.
func splitAt(g *Graph, bound int) []int32 {
	split := make([]int32, g.N)
	b := int32(bound)
	for u := 0; u < g.N; u++ {
		row := g.Neighbors(u)
		k := 0
		for k < len(row) && row[k] < b {
			k++
		}
		split[u] = int32(k)
	}
	return split
}

// rangeSubgraph materializes vertices [lo, hi) with the edges among
// them, renumbered from zero.
func rangeSubgraph(g *Graph, lo, hi int) *Graph {
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
	return &Graph{N: hi - lo, RowPtr: rowPtr, Adj: adj}
}

func boundsFor(n int) []int {
	return []int{0, 1, n / 3, n / 2, n - 1, n}
}

func TestDFSPrefixMatchesMaterialized(t *testing.T) {
	for name, g := range maskedTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, bound := range boundsFor(g.N) {
				split := splitAt(g, bound)
				sub := rangeSubgraph(g, 0, bound)

				var got, want CCResult
				DFSPrefixInto(g.RowPtr, g.Adj, split, bound, &got, new(CCScratch))
				DFSRef(sub, &want, new(CCScratch))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("bound %d: DFSPrefixInto != DFSRef on materialized prefix", bound)
				}
			}
		})
	}
}

func TestParallelCPUPrefixMatchesMaterialized(t *testing.T) {
	for name, g := range maskedTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, bound := range boundsFor(g.N) {
				split := splitAt(g, bound)
				sub := rangeSubgraph(g, 0, bound)
				for _, workers := range []int{1, 2, 4, 7} {
					var got, want CCResult
					crossArcs := ParallelCPUPrefixInto(g.RowPtr, g.Adj, split, bound, workers, &got, new(CCScratch))
					ParallelCPURef(sub, workers, &want, new(CCScratch))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("bound %d workers %d: ParallelCPUPrefixInto != ParallelCPURef on materialized prefix",
							bound, workers)
					}
					// The returned cross-part count must equal a brute
					// recount over the materialized prefix subgraph.
					var wantCross int64
					if workers > 1 {
						for w := 0; w < workers; w++ {
							lo := int32(w * sub.N / workers)
							hi := int32((w + 1) * sub.N / workers)
							for u := int(lo); u < int(hi); u++ {
								for _, v := range sub.Neighbors(u) {
									if v < lo || v >= hi {
										wantCross++
									}
								}
							}
						}
					}
					if crossArcs != wantCross {
						t.Fatalf("bound %d workers %d: crossArcs = %d, brute recount %d",
							bound, workers, crossArcs, wantCross)
					}
				}
			}
		})
	}
}

// TestShiloachVishkinSuffixMatchesMaterialized pins the range kernel on
// the suffix [bound, n), the accelerator's share in every two-device
// run, to the frozen reference on the materialized suffix.
func TestShiloachVishkinSuffixMatchesMaterialized(t *testing.T) {
	for name, g := range maskedTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, bound := range boundsFor(g.N) {
				split := splitAt(g, bound)
				sub := rangeSubgraph(g, bound, g.N)

				var got, want CCResult
				ShiloachVishkinRangeInto(g.RowPtr, g.Adj, split, bound, g.N, &got, new(CCScratch))
				ShiloachVishkinRef(sub, &want, new(CCScratch))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("bound %d: ShiloachVishkinRangeInto != ShiloachVishkinRef on materialized suffix",
						bound)
				}
			}
		})
	}
}

// TestShiloachVishkinRangeMatchesReference pins the range kernel to the
// frozen reference kernel on the materialized range subgraph, across
// interior ranges, empty ranges, lo = 0 and hi = n.
func TestShiloachVishkinRangeMatchesReference(t *testing.T) {
	for name, g := range maskedTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.N
			ranges := [][2]int{
				{0, 0}, {n / 2, n / 2}, {n, n}, // empty
				{0, 1}, {0, n / 3}, {0, n}, // lo = 0
				{n - 1, n}, {2 * n / 3, n}, // hi = n
				{1, n - 1}, {n / 4, n / 2}, {n / 3, 2 * n / 3}, {n / 2, n/2 + 1},
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				sub := rangeSubgraph(g, lo, hi)
				var got, want CCResult
				ShiloachVishkinRangeInto(g.RowPtr, g.Adj, splitAt(g, lo), lo, hi, &got, new(CCScratch))
				ShiloachVishkinRef(sub, &want, new(CCScratch))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("range [%d, %d): ShiloachVishkinRangeInto = %+v counters, reference %+v",
						lo, hi, countersOf(got), countersOf(want))
				}
			}
		})
	}
}

// FuzzMaskedCCMatchesReference holds each served kernel to its frozen
// reference on the materialized prefix or range, for any prefix bound
// and any range in [0, n] of a small graph decoded from the fuzz bytes:
// data[0] picks n, data[1..3] the bound and the range ends, data[4]
// the worker count, and the remaining byte pairs the edges. FromCSR
// symmetrizes, sorts and deduplicates the adjacency, as for an upload.
// It also holds ParallelCPUPrefixInto's returned cross-part count to
// CrossPartPrefix on the same prefix and worker count.
func FuzzMaskedCCMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 0})
	f.Add([]byte{8, 4, 2, 7, 3, 0, 1, 1, 2, 2, 3, 5, 6, 6, 7, 3, 3})
	f.Add([]byte{40, 20, 10, 30, 4, 0, 39, 1, 38, 19, 21, 20, 20, 5, 9, 30, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := int(data[0]) % 48
		bound := int(data[1]) % (n + 1)
		lo, hi := int(data[2])%(n+1), int(data[3])%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		workers := int(data[4])%8 + 1
		var rows, cols []int32
		for k := 5; k+1 < len(data) && n > 0; k += 2 {
			rows = append(rows, int32(int(data[k])%n))
			cols = append(cols, int32(int(data[k+1])%n))
		}
		m, err := sparse.FromTriplets(n, n, rows, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromCSR(m)
		if err != nil {
			t.Fatal(err)
		}

		split, prefix := splitAt(g, bound), rangeSubgraph(g, 0, bound)
		var got, want CCResult
		DFSPrefixInto(g.RowPtr, g.Adj, split, bound, &got, new(CCScratch))
		DFSRef(prefix, &want, new(CCScratch))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n %d bound %d: DFSPrefixInto %+v, DFSRef %+v", n, bound, got, want)
		}
		crossArcs := ParallelCPUPrefixInto(g.RowPtr, g.Adj, split, bound, workers, &got, new(CCScratch))
		ParallelCPURef(prefix, workers, &want, new(CCScratch))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n %d bound %d workers %d: ParallelCPUPrefixInto %+v, ParallelCPURef %+v",
				n, bound, workers, got, want)
		}
		// The labelled run's cross-part count and the structure-only
		// count both feed the CPU merge charge.
		if c := CrossPartPrefix(g.RowPtr, g.Adj, split, bound, workers); c != crossArcs {
			t.Fatalf("n %d bound %d workers %d: CrossPartPrefix %d, ParallelCPUPrefixInto %d",
				n, bound, workers, c, crossArcs)
		}
		ShiloachVishkinRangeInto(g.RowPtr, g.Adj, splitAt(g, lo), lo, hi, &got, new(CCScratch))
		ShiloachVishkinRef(rangeSubgraph(g, lo, hi), &want, new(CCScratch))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n %d range [%d, %d): ShiloachVishkinRangeInto %+v, ShiloachVishkinRef %+v",
				n, lo, hi, got, want)
		}
	})
}

// countersOf strips the labels for a readable failure message.
func countersOf(r CCResult) CCResult {
	r.Labels = nil
	return r
}

// TestDegreeCVMatchesMoments pins the closed-form-sum DegreeCV to the
// shared stats implementation, bit for bit: the closed-form mean
// (float64 of the exact integer arc total) must reproduce the
// reference's sequential accumulation exactly, since every partial sum
// of integer degrees is an integer far below 2^53.
func TestDegreeCVMatchesMoments(t *testing.T) {
	for name, g := range maskedTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			got := g.DegreeCV()
			want := stats.MomentsOf(g.N, g.Degree).CV
			if got != want {
				t.Fatalf("DegreeCV = %x, stats.MomentsOf CV = %x", got, want)
			}
		})
	}

	// Degenerate shapes fall back to the shared zero conventions.
	for _, g := range []*Graph{
		{N: 0, RowPtr: []int64{0}},
		{N: 1, RowPtr: []int64{0, 0}},
		{N: 3, RowPtr: []int64{0, 0, 0, 0}}, // no arcs: mean 0
	} {
		got := g.DegreeCV()
		want := stats.MomentsOf(g.N, g.Degree).CV
		if got != want {
			t.Fatalf("N=%d: DegreeCV = %v, stats.MomentsOf CV = %v", g.N, got, want)
		}
	}
}
