package graph

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestContractedSampleShape(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 5000, M: 40000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	sub, ids, err := g.ContractedSample(r, 200, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.N != 200 || len(ids) != 200 {
		t.Fatalf("sample N = %d, ids = %d", sub.N, len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("ids not strictly ascending")
		}
	}
	// No self loops from contraction.
	for u := 0; u < sub.N; u++ {
		if sub.HasEdge(u, u) {
			t.Fatalf("contracted self loop at %d", u)
		}
	}
}

func TestContractedSamplePreservesDensity(t *testing.T) {
	// Unlike the induced subgraph, the contraction keeps the average
	// degree in the same ballpark as the original.
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 10000, M: 80000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(4)
	k := 100 // sqrt(n)
	contracted, _, err := g.ContractedSample(r, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	induced, _, err := g.InducedSubgraph(g.SampleVertices(r, k))
	if err != nil {
		t.Fatal(err)
	}
	fullDeg := float64(g.Arcs()) / float64(g.N)
	contractedDeg := float64(contracted.Arcs()) / float64(contracted.N)
	inducedDeg := float64(induced.Arcs()) / float64(induced.N)
	if contractedDeg < fullDeg/2 {
		t.Errorf("contracted degree %v collapsed vs full %v", contractedDeg, fullDeg)
	}
	if inducedDeg > contractedDeg/4 {
		t.Errorf("induced degree %v unexpectedly dense (contracted %v)", inducedDeg, contractedDeg)
	}
}

func TestContractedSamplePreservesDegreeSkew(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindRMAT, N: 16384, M: 120000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(6)
	sub, _, err := g.ContractedSample(r, 512, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// A skewed graph's sample must stay clearly skewed. Contraction
	// compresses the extreme tail (received edges pile onto fewer
	// vertices) so exact preservation is not expected, but the CV
	// must remain far above a regular graph's (~0.2).
	fullCV, subCV := g.DegreeCV(), sub.DegreeCV()
	if subCV < 1.0 {
		t.Errorf("sample CV %v no longer skewed (full %v)", subCV, fullCV)
	}
}

func TestContractedSampleLocality(t *testing.T) {
	// A road network's contraction must remain high-diameter: the
	// SV round count on the sample should exceed a star-like graph's.
	g, err := Generate(GenGraphConfig{Kind: KindRoad, N: 40000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := g.ContractedSample(xrand.New(8), 200, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res := svWhole(sub)
	if res.Rounds < 4 {
		t.Errorf("road contraction converged in %d rounds; locality lost", res.Rounds)
	}
}

func TestContractedSampleThinning(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 4000, M: 40000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := g.ContractedSample(xrand.New(10), 300, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	thinned, _, err := g.ContractedSample(xrand.New(10), 300, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(thinned.Arcs()) / float64(full.Arcs())
	if math.Abs(ratio-0.25) > 0.12 {
		t.Errorf("thinning ratio = %v, want ~0.25", ratio)
	}
}

func TestContractedSampleValidation(t *testing.T) {
	g := pathGraph(t, 10)
	r := xrand.New(11)
	if _, _, err := g.ContractedSample(r, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := g.ContractedSample(r, 5, 0); err == nil {
		t.Error("keepFrac=0 accepted")
	}
	if _, _, err := g.ContractedSample(r, 5, 1.5); err == nil {
		t.Error("keepFrac>1 accepted")
	}
	// k > n clamps.
	sub, _, err := g.ContractedSample(r, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N != 10 {
		t.Errorf("clamped N = %d", sub.N)
	}
}

func TestContractedSampleDeterminism(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindGNM, N: 2000, M: 10000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := g.ContractedSample(xrand.New(13), 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := g.ContractedSample(xrand.New(13), 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arcs() != b.Arcs() {
		t.Fatal("same seed, different samples")
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("same seed, different adjacency")
		}
	}
}

func TestImportanceSampleVertices(t *testing.T) {
	g, err := Generate(GenGraphConfig{Kind: KindRMAT, N: 4096, M: 30000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(22)
	s := g.ImportanceSampleVertices(r, 200)
	if len(s) != 200 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int]bool{}
	for i, v := range s {
		if v < 0 || v >= g.N || seen[v] {
			t.Fatalf("bad sample entry %d", v)
		}
		seen[v] = true
		if i > 0 && s[i-1] >= v {
			t.Fatal("sample not sorted")
		}
	}
	// Degree bias: the mean degree of importance-sampled vertices must
	// clearly exceed the mean degree of a uniform sample.
	meanDeg := func(vs []int) float64 {
		sum := 0.0
		for _, v := range vs {
			sum += float64(g.Degree(v))
		}
		return sum / float64(len(vs))
	}
	uni := g.SampleVertices(xrand.New(23), 200)
	if meanDeg(s) < 1.5*meanDeg(uni) {
		t.Errorf("importance sample mean degree %v not biased vs uniform %v",
			meanDeg(s), meanDeg(uni))
	}
	// Edge cases.
	if got := g.ImportanceSampleVertices(r, 0); got != nil {
		t.Errorf("k=0 gave %v", got)
	}
	if got := g.ImportanceSampleVertices(r, g.N+5); len(got) != g.N {
		t.Errorf("clamping failed: %d", len(got))
	}
}
