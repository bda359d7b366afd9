package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

// ccAlgos enumerates every served components kernel, run over a whole
// graph, under one name so all correctness tests run against each.
var ccAlgos = []struct {
	name string
	run  func(*Graph) *CCResult
}{
	{"DFSPrefix", dfsWhole},
	{"ParallelCPUPrefix2", func(g *Graph) *CCResult { return parallelCPUWhole(g, 2) }},
	{"ParallelCPUPrefix7", func(g *Graph) *CCResult { return parallelCPUWhole(g, 7) }},
	{"ShiloachVishkinRange", svWhole},
}

// dfsWhole, parallelCPUWhole and svWhole run the served kernels over a
// whole graph: the prefix kernels see every arc of every row (the
// prefix bound is n) and the range kernel the range [0, n).
func dfsWhole(g *Graph) *CCResult {
	res := new(CCResult)
	DFSPrefixInto(g.RowPtr, g.Adj, splitAt(g, g.N), g.N, res, new(CCScratch))
	return res
}

func parallelCPUWhole(g *Graph, workers int) *CCResult {
	res := new(CCResult)
	ParallelCPUPrefixInto(g.RowPtr, g.Adj, splitAt(g, g.N), g.N, workers, res, new(CCScratch))
	return res
}

func svWhole(g *Graph) *CCResult {
	res := new(CCResult)
	ShiloachVishkinRangeInto(g.RowPtr, g.Adj, splitAt(g, 0), 0, g.N, res, new(CCScratch))
	return res
}

// dfsRef runs the frozen reference DFS on g.
func dfsRef(g *Graph) *CCResult {
	res := new(CCResult)
	DFSRef(g, res, new(CCScratch))
	return res
}

func sameLabels(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCCEmptyAndSingleton(t *testing.T) {
	for _, algo := range ccAlgos {
		empty, _ := FromEdges(0, nil)
		res := algo.run(empty)
		if res.Components != 0 {
			t.Errorf("%s: empty graph components = %d", algo.name, res.Components)
		}
		single, _ := FromEdges(1, nil)
		res = algo.run(single)
		if res.Components != 1 || res.Labels[0] != 0 {
			t.Errorf("%s: singleton components = %d labels = %v", algo.name, res.Components, res.Labels)
		}
	}
}

func TestCCPath(t *testing.T) {
	g := pathGraph(t, 100)
	for _, algo := range ccAlgos {
		res := algo.run(g)
		if res.Components != 1 {
			t.Errorf("%s: path components = %d, want 1", algo.name, res.Components)
		}
		for v, l := range res.Labels {
			if l != 0 {
				t.Fatalf("%s: label[%d] = %d, want 0", algo.name, v, l)
			}
		}
	}
}

func TestCCDisconnected(t *testing.T) {
	// Three components: {0,1,2}, {3,4}, {5}.
	g, err := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 0, 0, 3, 3, 5}
	for _, algo := range ccAlgos {
		res := algo.run(g)
		if res.Components != 3 {
			t.Errorf("%s: components = %d, want 3", algo.name, res.Components)
		}
		if !sameLabels(res.Labels, want) {
			t.Errorf("%s: labels = %v, want %v", algo.name, res.Labels, want)
		}
	}
}

func TestCCAllAlgorithmsAgree(t *testing.T) {
	for _, kind := range []GenKind{KindGNM, KindRMAT, KindRoad, KindMesh} {
		g, err := Generate(GenGraphConfig{Kind: kind, N: 777, M: 1500, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		ref := dfsRef(g)
		for _, algo := range ccAlgos {
			res := algo.run(g)
			if res.Components != ref.Components {
				t.Errorf("%v/%s: components %d, DFSRef says %d", kind, algo.name, res.Components, ref.Components)
			}
			if !sameLabels(res.Labels, ref.Labels) {
				t.Errorf("%v/%s: labels differ from DFSRef", kind, algo.name)
			}
		}
	}
}

func TestCCAgreementProperty(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		n := 150
		m := int(mRaw%600) + 1
		g, err := Generate(GenGraphConfig{Kind: KindGNM, N: n, M: m, Seed: seed})
		if err != nil {
			return false
		}
		ref := dfsRef(g)
		sv := svWhole(g)
		par := parallelCPUWhole(g, 4)
		return sv.Components == ref.Components && par.Components == ref.Components &&
			sameLabels(sv.Labels, ref.Labels) && sameLabels(par.Labels, ref.Labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDFSWorkCounters(t *testing.T) {
	g := pathGraph(t, 10)
	res := dfsWhole(g)
	if res.VerticesVisited != 10 {
		t.Errorf("vertices visited = %d, want 10", res.VerticesVisited)
	}
	// DFS scans every arc exactly once: 2*(n-1) arcs.
	if res.EdgesVisited != 18 {
		t.Errorf("edges visited = %d, want 18", res.EdgesVisited)
	}
	if res.Rounds != 0 {
		t.Errorf("DFS rounds = %d", res.Rounds)
	}
}

func TestSVRoundsGrowWithDiameter(t *testing.T) {
	// A long path needs more SV rounds than a star.
	path := pathGraph(t, 4096)
	starEdges := make([]Edge, 0, 4095)
	for i := 1; i < 4096; i++ {
		starEdges = append(starEdges, Edge{0, int32(i)})
	}
	star, err := FromEdges(4096, starEdges)
	if err != nil {
		t.Fatal(err)
	}
	rPath := svWhole(path)
	rStar := svWhole(star)
	if rPath.Rounds <= rStar.Rounds {
		t.Errorf("path rounds %d should exceed star rounds %d", rPath.Rounds, rStar.Rounds)
	}
	if rStar.Rounds > 3 {
		t.Errorf("star rounds = %d, want <= 3", rStar.Rounds)
	}
	// SV rounds are logarithmic-ish thanks to pointer jumping, far
	// below the linear diameter.
	if rPath.Rounds > 64 {
		t.Errorf("path rounds = %d, want O(log n)-ish", rPath.Rounds)
	}
}

func TestSVEdgeWorkAdaptive(t *testing.T) {
	g := pathGraph(t, 1000)
	res := svWhole(g)
	m := int64(g.M())
	// Each edge is scanned at least once, and the convergence filter
	// must keep total scans well below the naive m × rounds.
	if res.EdgesVisited < m {
		t.Errorf("edges visited %d < m %d", res.EdgesVisited, m)
	}
	if res.Rounds > 2 && res.EdgesVisited >= m*int64(res.Rounds) {
		t.Errorf("no adaptivity: %d visits for m=%d rounds=%d", res.EdgesVisited, m, res.Rounds)
	}
	// High-diameter structures re-scan edges more often than stars.
	starEdges := make([]Edge, 0, 999)
	for i := 1; i < 1000; i++ {
		starEdges = append(starEdges, Edge{0, int32(i)})
	}
	star, err := FromEdges(1000, starEdges)
	if err != nil {
		t.Fatal(err)
	}
	sres := svWhole(star)
	if float64(res.EdgesVisited)/float64(m) <= float64(sres.EdgesVisited)/float64(star.M()) {
		t.Errorf("path visits/edge %.2f should exceed star %.2f",
			float64(res.EdgesVisited)/float64(m), float64(sres.EdgesVisited)/float64(star.M()))
	}
}

func TestParallelCPUFallsBackToDFS(t *testing.T) {
	g := pathGraph(t, 5)
	// With workers > n/2 the partitioned path degenerates; the
	// implementation must fall back to sequential DFS.
	res := parallelCPUWhole(g, 8)
	if res.Components != 1 {
		t.Errorf("fallback components = %d", res.Components)
	}
	if want := dfsWhole(g); !reflect.DeepEqual(res, want) {
		t.Errorf("fallback %+v, DFSPrefixInto %+v", res, want)
	}
}

func TestNumComponents(t *testing.T) {
	if got := NumComponents([]int32{0, 0, 2, 2, 4}); got != 3 {
		t.Errorf("NumComponents = %d, want 3", got)
	}
	if got := NumComponents(nil); got != 0 {
		t.Errorf("NumComponents(nil) = %d", got)
	}
}

func TestUnionFindBasic(t *testing.T) {
	var uf UnionFind
	uf.Reset(5)
	if uf.Find(0) == uf.Find(1) {
		t.Error("fresh sets joined")
	}
	if !uf.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union reported merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Find(1) != uf.Find(2) {
		t.Error("transitive union broken")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Error("disjoint element joined")
	}
	if uf.Unions != 3 {
		t.Errorf("union count = %d, want 3", uf.Unions)
	}
	if uf.Finds == 0 {
		t.Error("find counter not incremented")
	}
}

func TestUnionFindMatchesDFS(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 400, M: 500, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var uf UnionFind
	uf.Reset(g.N)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			uf.Union(u, int(v))
		}
	}
	ref := dfsRef(g)
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if (uf.Find(u) == uf.Find(v)) != (ref.Labels[u] == ref.Labels[v]) {
				t.Fatalf("union-find disagrees with DFSRef on (%d,%d)", u, v)
			}
		}
	}
}

// The kernel benchmarks time the served kernels over a whole graph,
// with the split indexes built outside the timing as the runner builds
// them once per partition.
func BenchmarkDFS(b *testing.B) {
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 20000, M: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	split := splitAt(g, g.N)
	var res CCResult
	var s CCScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DFSPrefixInto(g.RowPtr, g.Adj, split, g.N, &res, &s)
	}
}

func BenchmarkShiloachVishkin(b *testing.B) {
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 20000, M: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lower := splitAt(g, 0)
	var res CCResult
	var s CCScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShiloachVishkinRangeInto(g.RowPtr, g.Adj, lower, 0, g.N, &res, &s)
	}
}

func BenchmarkParallelCPU(b *testing.B) {
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 20000, M: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	split := splitAt(g, g.N)
	var res CCResult
	var s CCScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelCPUPrefixInto(g.RowPtr, g.Adj, split, g.N, 4, &res, &s)
	}
}
