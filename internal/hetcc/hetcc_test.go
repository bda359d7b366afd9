package hetcc

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

func testGraph(t *testing.T, kind graph.GenKind, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenGraphConfig{Kind: kind, N: n, M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dfsRef labels g with the frozen reference DFS, the label oracle of
// the runner tests.
func dfsRef(g *graph.Graph) *graph.CCResult {
	res := new(graph.CCResult)
	graph.DFSRef(g, res, new(graph.CCScratch))
	return res
}

// split is the two-device partition of threshold t.
func split(t float64) core.Partition { return core.Partition{t, 100 - t} }

func TestRunCorrectAtAllThresholds(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 500, 900, 1)
	ref := dfsRef(g)
	alg := NewAlgorithm(hetsim.Default())
	for _, th := range []float64{0, 1, 10, 33.3, 50, 75, 99, 100} {
		res, err := alg.Run(g, split(th))
		if err != nil {
			t.Fatalf("t=%v: %v", th, err)
		}
		if res.Components != ref.Components {
			t.Errorf("t=%v: components %d, want %d", th, res.Components, ref.Components)
		}
		for v := range ref.Labels {
			if res.Labels[v] != ref.Labels[v] {
				t.Fatalf("t=%v: label[%d] = %d, want %d", th, v, res.Labels[v], ref.Labels[v])
			}
		}
		if res.Time <= 0 {
			t.Errorf("t=%v: non-positive simulated time %v", th, res.Time)
		}
	}
}

func TestRunCorrectAcrossKinds(t *testing.T) {
	alg := NewAlgorithm(hetsim.Default())
	for _, kind := range []graph.GenKind{graph.KindGNM, graph.KindRMAT, graph.KindRoad, graph.KindMesh} {
		g := testGraph(t, kind, 800, 2000, 3)
		ref := dfsRef(g)
		res, err := alg.Run(g, split(40))
		if err != nil {
			t.Fatal(err)
		}
		if res.Components != ref.Components {
			t.Errorf("%v: components %d, want %d", kind, res.Components, ref.Components)
		}
	}
}

func TestRunThresholdValidation(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 10, 9, 1)
	alg := NewAlgorithm(hetsim.Default())
	if _, err := alg.Run(g, split(-1)); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := alg.Run(g, split(101)); err == nil {
		t.Error("threshold > 100 accepted")
	}
	if _, err := alg.Run(nil, split(50)); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestRunExtremesMatchSingleDevice(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 300, 600, 5)
	alg := NewAlgorithm(hetsim.Default())
	// t=0: all on GPU — CPU time must be zero.
	res0, err := alg.Run(g, split(0))
	if err != nil {
		t.Fatal(err)
	}
	if res0.CPUTime != 0 {
		t.Errorf("t=0: CPU time = %v", res0.CPUTime)
	}
	if res0.CrossEdges != 0 {
		t.Errorf("t=0: cross edges = %d", res0.CrossEdges)
	}
	// t=100: all on CPU — GPU compute is zero (only the empty
	// transfer remains).
	res100, err := alg.Run(g, split(100))
	if err != nil {
		t.Fatal(err)
	}
	if res100.CrossEdges != 0 {
		t.Errorf("t=100: cross edges = %d", res100.CrossEdges)
	}
	if res100.CPUTime <= 0 {
		t.Errorf("t=100: CPU time = %v", res100.CPUTime)
	}
}

func TestCrossEdgesCounted(t *testing.T) {
	// Path 0-1-2-3: split at 2 cuts exactly edge (1,2).
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	alg := NewAlgorithm(hetsim.Default())
	res, err := alg.Run(g, split(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossEdges != 1 {
		t.Errorf("cross edges = %d, want 1", res.CrossEdges)
	}
	if res.Components != 1 {
		t.Errorf("components = %d", res.Components)
	}
}

func TestTimeLandscapeHasInteriorStructure(t *testing.T) {
	// The simulated time must not be flat in t, and the heterogeneous
	// optimum should beat both extremes on a graph with enough work.
	g := testGraph(t, graph.KindRMAT, 4096, 30000, 7)
	alg := NewAlgorithm(hetsim.Default())
	var times []float64
	best := math.Inf(1)
	for th := 0.0; th <= 100; th += 10 {
		res, err := alg.Run(g, split(th))
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.Time.Seconds())
		if res.Time.Seconds() < best {
			best = res.Time.Seconds()
		}
	}
	if best >= times[0] && best >= times[len(times)-1] {
		t.Errorf("no interior advantage: %v", times)
	}
	if times[0] == times[len(times)-1] {
		t.Errorf("landscape flat at extremes: %v", times)
	}
}

func TestGPUOnlyBaseline(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 400, 800, 9)
	alg := NewAlgorithm(hetsim.Default())
	res, err := alg.RunGPUOnly(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := dfsRef(g)
	if res.Components != ref.Components {
		t.Errorf("GPU-only components = %d, want %d", res.Components, ref.Components)
	}
	if res.Time <= 0 {
		t.Error("GPU-only time not positive")
	}
	if _, err := alg.RunGPUOnly(nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestOptimumIsInputDependent(t *testing.T) {
	// The paper's premise: the best threshold depends on the input
	// instance, so no single static split works. Optima must be
	// interior (both devices useful) and vary across graph classes.
	alg := NewAlgorithm(hetsim.Default())
	bestShare := func(g *graph.Graph) float64 {
		w := NewWorkload("x", g, alg)
		res, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Best
	}
	road := bestShare(testGraph(t, graph.KindRoad, 10000, 0, 11))
	web := bestShare(testGraph(t, graph.KindRMAT, 8192, 60000, 11))
	mesh := bestShare(testGraph(t, graph.KindMesh, 10000, 40000, 11))
	lo, hi := math.Min(road, math.Min(web, mesh)), math.Max(road, math.Max(web, mesh))
	if lo <= 0 || hi >= 100 {
		t.Errorf("degenerate optima: road=%v web=%v mesh=%v", road, web, mesh)
	}
	if hi-lo < 5 {
		t.Errorf("optima not input-dependent: road=%v web=%v mesh=%v", road, web, mesh)
	}
}

func TestWorkloadSampleEvaluate(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 2500, 10000, 13)
	alg := NewAlgorithm(hetsim.Default())
	w := NewWorkload("gnm", g, alg)
	r := xrand.New(1)
	sw, cost, err := w.Sample(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("sample cost not positive")
	}
	inner, ok := sw.(*Workload)
	if !ok {
		t.Fatalf("sample workload has type %T", sw)
	}
	if inner.g.N != DefaultSampleSize(g.N) {
		t.Errorf("sample size = %d, want %d", inner.g.N, DefaultSampleSize(g.N))
	}
	d, err := sw.Evaluate(50)
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.Evaluate(50)
	if err != nil {
		t.Fatal(err)
	}
	if d >= full {
		t.Errorf("sample evaluation %v not cheaper than full %v", d, full)
	}
}

func TestWorkloadCustomSampleSize(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 1000, 3000, 15)
	alg := NewAlgorithm(hetsim.Default())
	w := NewWorkload("gnm", g, alg)
	w.SampleSize = 200
	sw, _, err := w.Sample(context.Background(), xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if sw.(*Workload).g.N != 200 {
		t.Errorf("sample size = %d, want 200", sw.(*Workload).g.N)
	}
}

func TestExtrapolateIsIdentity(t *testing.T) {
	w := NewWorkload("x", nil, nil)
	for _, v := range []float64{0, 17.5, 100} {
		if got := w.Extrapolate(v); got != v {
			t.Errorf("Extrapolate(%v) = %v", v, got)
		}
	}
}

func TestEndToEndEstimateNearExhaustive(t *testing.T) {
	// The headline property: the sampling estimate lands near the
	// exhaustive optimum, and far closer than a fixed naive split
	// when the optimum is away from the naive value.
	if testing.Short() {
		t.Skip("end-to-end estimate is slow")
	}
	g := testGraph(t, graph.KindRMAT, 16384, 120000, 17)
	alg := NewAlgorithm(hetsim.Default())
	w := NewWorkload("rmat", g, alg)
	w.SampleSize = 4 * DefaultSampleSize(g.N) // denser sample stabilizes the landscape
	est, err := core.EstimateThreshold(context.Background(), w, core.Config{Seed: 5, Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(est.Threshold - best.Best)
	if diff > 25 {
		t.Errorf("estimate %v too far from exhaustive %v", est.Threshold, best.Best)
	}
	// And the achieved time must be within 50% of the best time.
	estTime, err := w.Evaluate(est.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if float64(estTime) > 1.5*float64(best.BestTime) {
		t.Errorf("estimated threshold time %v vs best %v", estTime, best.BestTime)
	}
	// Overhead must be far below the exhaustive search cost.
	if est.Overhead() >= best.Cost/10 {
		t.Errorf("estimation overhead %v not ≪ exhaustive cost %v", est.Overhead(), best.Cost)
	}
}

func TestDefaultSampleSize(t *testing.T) {
	if DefaultSampleSize(10000) != 100 {
		t.Errorf("sqrt sample size wrong: %d", DefaultSampleSize(10000))
	}
	if DefaultSampleSize(0) != 1 {
		t.Errorf("zero-n sample size = %d", DefaultSampleSize(0))
	}
}

func TestImportanceSamplerVariant(t *testing.T) {
	g := testGraph(t, graph.KindRMAT, 8192, 60000, 41)
	alg := NewAlgorithm(hetsim.Default())
	w := NewWorkload("rmat", g, alg)
	w.Importance = true
	sw, cost, err := w.Sample(context.Background(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("sample cost not positive")
	}
	sub := sw.(*Workload).Graph()
	if sub.N != DefaultSampleSize(g.N) {
		t.Errorf("sample size = %d", sub.N)
	}
	// Degree bias carries into the sample: its mean degree (before
	// the keep-thinning is factored out) exceeds the uniform
	// contraction's.
	uni := NewWorkload("rmat", g, alg)
	usw, _, err := uni.Sample(context.Background(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	uniSub := usw.(*Workload).Graph()
	if float64(sub.Arcs())/float64(sub.N) <= float64(uniSub.Arcs())/float64(uniSub.N) {
		t.Errorf("importance sample density %d/%d not above uniform %d/%d",
			sub.Arcs(), sub.N, uniSub.Arcs(), uniSub.N)
	}
	// And the estimate pipeline works end to end.
	est, err := core.EstimateThreshold(context.Background(), w, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if est.Threshold < 0 || est.Threshold > 100 {
		t.Errorf("estimate = %v", est.Threshold)
	}
}
