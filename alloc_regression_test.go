package repro

// Allocation regression tests for the evaluation hot path. The
// Identify stage's parallel speedup depends on grid-point evaluations
// staying off the heap: per-evaluation allocation serializes workers
// on the allocator and GC, which is how the PR-4 engine ended up
// slower in parallel than sequential on the old single-core baseline.
// These tests pin the steady-state allocation counts so a regression
// shows up as a test failure, not as a silently flat speedup curve.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
)

// evalWorkloads builds one workload per case study on a full Table II
// replica, the same inputs the search benchmark sweeps.
func evalWorkloads(t testing.TB) map[string]core.Workload {
	t.Helper()
	platform := hetsim.Default()
	ws := map[string]core.Workload{}

	d, err := datasets.ByName("germany_osm")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ws["cc"] = hetcc.NewWorkload("germany_osm", g, hetcc.NewAlgorithm(platform))

	d, err = datasets.ByName("cant")
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	spmm, err := hetspmm.NewWorkload("cant", m, hetspmm.NewAlgorithm(platform))
	if err != nil {
		t.Fatal(err)
	}
	ws["spmm"] = spmm

	d, err = datasets.ByName("web-BerkStan")
	if err != nil {
		t.Fatal(err)
	}
	m, err = d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	scale, err := hetscale.NewWorkload("web-BerkStan", m, hetscale.NewAlgorithm(platform))
	if err != nil {
		t.Fatal(err)
	}
	ws["scale"] = scale
	return ws
}

// TestEvaluateAllocsPinned pins the per-grid-point allocation count of
// every workload's Evaluate. cc was the offender: before the scratch
// arenas it allocated ~200k times per evaluation (edge-list partition,
// FromEdges rebuilds, per-call label/union-find state); it now runs
// out of a pooled split-index scratch. cc3 is the same runner at three
// devices through EvaluatePartition, which rebuilt every device's
// subgraph until the two runners merged. The pins leave a little
// headroom for sync.Pool refills after a GC, nothing more.
func TestEvaluateAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	limits := map[string]float64{"cc": 4, "cc3": 4, "spmm": 1, "scale": 1}
	ws := evalWorkloads(t)
	evals := map[string]func() error{}
	for name, w := range ws {
		evals[name] = func() error { _, err := w.Evaluate(37); return err }
	}
	g := ws["cc"].(*hetcc.Workload).Graph()
	mw := hetcc.NewMultiWorkload("germany_osm", g, hetcc.NewMultiAlgorithm(hetsim.DefaultMulti(2)))
	evals["cc3"] = func() error { _, err := mw.EvaluatePartition(core.Partition{40, 30, 30}); return err }
	for name, eval := range evals {
		if err := eval(); err != nil { // warm the scratch pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := eval(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limits[name] {
			t.Errorf("%s: %v allocs per evaluation, want <= %v", name, allocs, limits[name])
		}
	}
}

// TestSearchEngineAllocsPinned pins the engine's own overhead: a whole
// search — tracker, memo, grid, parallel fan-out, commit — on an
// allocation-free workload must cost only a handful of allocations,
// sequentially and at parallelism 8. Before the persistent pool and
// the recycled tracker/arena buffers this was 29 allocations for a
// 9-evaluation race-then-fine window and 38 for an exhaustive sweep at
// parallelism 8.
func TestSearchEngineAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	w := evalWorkloads(t)["spmm"]
	cases := []struct {
		name     string
		searcher core.Searcher
		par      int
		limit    float64
	}{
		{"exhaustive/p1", core.Exhaustive{}, 1, 6},
		{"exhaustive/p8", core.Exhaustive{}, 8, 10},
		{"race-then-fine/p1", &core.RaceThenFine{Window: 4}, 1, 6},
		{"race-then-fine/p8", &core.RaceThenFine{Window: 4}, 8, 10},
	}
	for _, c := range cases {
		ctx := core.WithParallelism(context.Background(), c.par)
		if _, err := c.searcher.Search(ctx, w, 0, 100); err != nil { // warm pools & pool workers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.searcher.Search(ctx, w, 0, 100); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.limit {
			t.Errorf("%s: %v allocs per search, want <= %v", c.name, allocs, c.limit)
		}
	}
}
