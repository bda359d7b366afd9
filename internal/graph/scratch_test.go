package graph

import (
	"reflect"
	"testing"
)

// intoVariants pairs each served kernel, run over a whole graph, with
// its frozen reference; the served form must reproduce labels AND work
// counters exactly, since the simulator charges device time from the
// counters.
var intoVariants = []struct {
	name string
	ref  func(*Graph, *CCResult, *CCScratch)
	into func(*Graph, *CCResult, *CCScratch)
}{
	{"DFSPrefix", DFSRef, func(g *Graph, res *CCResult, s *CCScratch) {
		DFSPrefixInto(g.RowPtr, g.Adj, splitAt(g, g.N), g.N, res, s)
	}},
	{"ParallelCPUPrefix4", func(g *Graph, res *CCResult, s *CCScratch) { ParallelCPURef(g, 4, res, s) },
		func(g *Graph, res *CCResult, s *CCScratch) {
			ParallelCPUPrefixInto(g.RowPtr, g.Adj, splitAt(g, g.N), g.N, 4, res, s)
		}},
	{"ParallelCPUPrefix1", func(g *Graph, res *CCResult, s *CCScratch) { ParallelCPURef(g, 1, res, s) },
		func(g *Graph, res *CCResult, s *CCScratch) {
			ParallelCPUPrefixInto(g.RowPtr, g.Adj, splitAt(g, g.N), g.N, 1, res, s)
		}},
	{"ShiloachVishkinRange", ShiloachVishkinRef, func(g *Graph, res *CCResult, s *CCScratch) {
		ShiloachVishkinRangeInto(g.RowPtr, g.Adj, splitAt(g, 0), 0, g.N, res, s)
	}},
}

func TestIntoVariantsMatchOriginals(t *testing.T) {
	for _, kind := range []GenKind{KindGNM, KindRMAT, KindRoad, KindMesh} {
		g, err := Generate(GenGraphConfig{Kind: kind, N: 777, M: 1500, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range intoVariants {
			var got, want CCResult
			v.ref(g, &want, new(CCScratch))
			v.into(g, &got, new(CCScratch))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%s: served kernel differs from reference\n got %+v\nwant %+v",
					kind, v.name, abbrev(&got), abbrev(&want))
			}
		}
	}
}

// TestIntoScratchReuse runs each served kernel repeatedly on graphs of
// shrinking and growing sizes through ONE scratch: stale state from a
// previous (larger) graph must never leak into the next result.
func TestIntoScratchReuse(t *testing.T) {
	sizes := []int{400, 64, 777, 8, 400}
	for _, v := range intoVariants {
		var s CCScratch
		var res CCResult
		for _, n := range sizes {
			g, err := Generate(GenGraphConfig{Kind: KindGNM, N: n, M: 2 * n, Seed: uint64(n)})
			if err != nil {
				t.Fatal(err)
			}
			var want CCResult
			v.ref(g, &want, new(CCScratch))
			v.into(g, &res, &s)
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: n=%d reused scratch diverges from reference", v.name, n)
			}
		}
	}
}

// TestIntoVariantsAllocFree pins the steady-state allocation count of
// the three served kernels to zero, at a mid bound and over the full
// range: after a warm-up call sizes the scratch, repeated evaluations
// on the same graph must not touch the heap at all. The split indexes
// are built once outside the measurement, as the runner builds them
// once per partition.
func TestIntoVariantsAllocFree(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindRMAT, N: 2048, M: 8192, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n, rp, adj := g.N, g.RowPtr, g.Adj
	// splitAt(g, b) is both the prefix split for bound b and the lower
	// index of the range [b, n).
	zero, mid, full := splitAt(g, 0), splitAt(g, n/2), splitAt(g, n)
	kernels := []struct {
		name string
		run  func(*CCResult, *CCScratch)
	}{
		{"DFSPrefix/mid", func(res *CCResult, s *CCScratch) { DFSPrefixInto(rp, adj, mid, n/2, res, s) }},
		{"DFSPrefix/full", func(res *CCResult, s *CCScratch) { DFSPrefixInto(rp, adj, full, n, res, s) }},
		{"ParallelCPUPrefix4/mid", func(res *CCResult, s *CCScratch) { ParallelCPUPrefixInto(rp, adj, mid, n/2, 4, res, s) }},
		{"ParallelCPUPrefix4/full", func(res *CCResult, s *CCScratch) { ParallelCPUPrefixInto(rp, adj, full, n, 4, res, s) }},
		{"ShiloachVishkinRange/mid", func(res *CCResult, s *CCScratch) { ShiloachVishkinRangeInto(rp, adj, mid, n/2, n, res, s) }},
		{"ShiloachVishkinRange/full", func(res *CCResult, s *CCScratch) { ShiloachVishkinRangeInto(rp, adj, zero, 0, n, res, s) }},
	}
	for _, k := range kernels {
		var s CCScratch
		var res CCResult
		k.run(&res, &s) // warm up: size the scratch
		allocs := testing.AllocsPerRun(10, func() {
			k.run(&res, &s)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warmed-up run, want 0", k.name, allocs)
		}
	}
}

func TestUnionFindReset(t *testing.T) {
	var uf UnionFind
	uf.Reset(8)
	uf.Union(0, 1)
	uf.Union(2, 3)
	uf.Reset(8)
	if uf.Unions != 0 || uf.Finds != 0 {
		t.Errorf("Reset left counters: unions=%d finds=%d", uf.Unions, uf.Finds)
	}
	for i := 0; i < 8; i++ {
		if uf.Find(i) != i {
			t.Errorf("after Reset, Find(%d) = %d, want singleton", i, uf.Find(i))
		}
	}
	// Shrinking reuses the arrays; growing reallocates. Both must give
	// a valid singleton forest.
	uf.Reset(3)
	uf.Union(0, 2)
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(1) {
		t.Error("union-find broken after shrink Reset")
	}
	uf.Reset(16)
	for i := 0; i < 16; i++ {
		if uf.Find(i) != i {
			t.Fatalf("after grow Reset, Find(%d) = %d", i, uf.Find(i))
		}
	}
}

func TestCanonicalizeMinLabelsCountInto(t *testing.T) {
	labels := []int32{4, 4, 2, 2, 4, 5, 2}
	components := CanonicalizeMinLabelsCountInto(labels, make([]int32, len(labels)))
	if want := []int32{0, 0, 2, 2, 0, 5, 2}; !sameLabels(labels, want) {
		t.Errorf("canonical labels %v, want %v", labels, want)
	}
	if components != 3 {
		t.Errorf("components = %d, want 3", components)
	}
}

// abbrev trims Labels for readable failure output.
func abbrev(r *CCResult) CCResult {
	c := *r
	if len(c.Labels) > 8 {
		c.Labels = c.Labels[:8]
	}
	return c
}
