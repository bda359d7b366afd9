package repro

// BenchmarkSearch compares sequential and parallel Identify searches
// on full Table II replicas and writes BENCH_search.json.
//
//	go test -run '^$' -bench=BenchmarkSearch -benchtime=1x .
//
// Each case runs the same searcher at Parallelism=1 and at
// Parallelism=8 in alternating rounds (bench_timing_test.go) and
// records, per case:
//
//   - parallel_speedup: the median per-round sequential/parallel ratio.
//     The expensive exhaustive CC sweep must reach 1.5×; benchdiff
//     fails any speedup above the effective cores of the recording.
//   - identical: 1 when the two SearchResults marshal to the same bytes
//     (Best, BestTime, Evals, Cost and the Curve order). Parallelism
//     is never allowed to change a result.

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
)

// benchParallelism is the explicit parallel arm of every case. It is a
// constant — not GOMAXPROCS — so every recording measures the same
// configuration; the host rule caps what it can show.
const benchParallelism = 8

// searchRange mirrors core's rangeOf for a bare Workload.
func searchRange(w core.Workload) (lo, hi float64) {
	if r, ok := w.(core.Ranger); ok {
		return r.ThresholdRange()
	}
	return 0, 100
}

// searchArm runs s over w at parallelism par and keeps the last result
// in *res.
func searchArm(b *testing.B, s core.Searcher, w core.Workload, par int, res *core.SearchResult) arm {
	ctx := core.WithParallelism(context.Background(), par)
	lo, hi := searchRange(w)
	return loop(func() {
		r, err := s.Search(ctx, w, lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		*res = r
	})
}

func ccWorkload(b *testing.B, platform *hetsim.Platform, name string) core.Workload {
	b.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		b.Fatal(err)
	}
	return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(platform))
}

func spmmWorkload(b *testing.B, platform *hetsim.Platform, name string) core.Workload {
	b.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := d.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	w, err := hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(platform))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSearch drives the three searchers sequentially and at
// Parallelism=8 and writes the BENCH_search.json report.
func BenchmarkSearch(b *testing.B) {
	platform := hetsim.Default()
	rep := benchfmt.New()

	// germany_osm is the largest replica by vertex count, so its CC
	// evaluations are the most expensive in the registry — the case
	// parallel search helps most, and the one held to a floor.
	// cant/SpMM evaluations are cheap profile lookups, the case it
	// helps least.
	cases := []struct {
		searcher   core.Searcher
		workload   string
		dataset    string
		build      func(*testing.B, *hetsim.Platform, string) core.Workload
		minSpeedup float64
	}{
		{core.Exhaustive{Step: 1}, "cc", "germany_osm", ccWorkload, 1.5},
		{core.CoarseToFine{}, "cc", "germany_osm", ccWorkload, 0},
		{core.RaceThenFine{Window: 4}, "spmm", "cant", spmmWorkload, 0},
	}

	for _, c := range cases {
		w := c.build(b, platform, c.dataset)
		name := c.searcher.Name() + "/" + c.workload + "/" + c.dataset
		var seqRes, parRes core.SearchResult
		speedup := pairRatio(
			searchArm(b, c.searcher, w, 1, &seqRes),
			searchArm(b, c.searcher, w, benchParallelism, &parRes), parallelArmTime)

		seqJSON, err := json.Marshal(seqRes)
		if err != nil {
			b.Fatal(err)
		}
		parJSON, err := json.Marshal(parRes)
		if err != nil {
			b.Fatal(err)
		}
		identical := string(seqJSON) == string(parJSON)
		if !identical {
			b.Errorf("%s: parallel result differs from sequential:\n  seq %s\n  par %s", name, seqJSON, parJSON)
		}

		sp := benchfmt.Row{Layer: "search", Case: name, Metric: benchfmt.ParallelSpeedup,
			Value: speedup, Unit: "x", Better: "higher", Cores: benchParallelism}
		if c.minSpeedup > 0 {
			sp.Min = benchfmt.Bound(c.minSpeedup)
		}
		rep.Rows = append(rep.Rows, sp, benchfmt.Row{Layer: "search", Case: name, Metric: "identical",
			Value: boolValue(identical), Unit: "bool", Better: "higher", Cores: benchParallelism, Min: benchfmt.Bound(1)})
	}
	writeReport(b, rep, "BENCH_search.json")
}
