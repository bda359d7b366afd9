package repro

// BenchmarkPartition measures the N-device partition-vector search and
// writes BENCH_partition.json.
//
//	go test -run '^$' -bench=BenchmarkPartition -benchtime=1x .
//
// The report has two kinds of rows:
//
//   - parity: the same scalar searcher run over the same 2-device
//     hetcc workload through Searcher.Search on its scalar interface
//     and through SimplexSearch on its partition interface, in
//     alternating rounds. The vector path must produce the
//     bit-identical result (identical, floor 1), and its wall-clock
//     overhead (vector/scalar) stays under 1.5× so the simplex
//     machinery cannot quietly grow a tax.
//
//   - simplex: coordinate-descent searches at 3 and 4 devices on the
//     analytic hetsim scenario (whose optimum is input-dependent by
//     construction) plus a real 3-device SpMM prefix-split. Each
//     records its evaluations, capped at 1000 and, where an exhaustive
//     sweep is affordable, below the sweep's count; and the sweep's
//     gap_pct, how far the descent's best partition runs above the
//     sweep's optimum, capped at the paper-level 5%.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
)

// simplexEvalBudget is the evaluation ceiling of one descent: a descent
// that approaches sweep-sized counts has lost its reason to exist.
const simplexEvalBudget = 1000

// parityIdentical checks that a 2-device SimplexResult carries exactly
// the scalar SearchResult: the free axis is device 0, so Best[0] and
// every Curve[i].P[0] must match the scalar threshold bit for bit.
func parityIdentical(s core.SearchResult, v core.SimplexResult) bool {
	if len(v.Best) != 2 || v.Best[0] != s.Best || v.BestTime != s.BestTime {
		return false
	}
	if v.Evals != s.Evals || v.Cost != s.Cost || len(v.Curve) != len(s.Curve) {
		return false
	}
	for i, p := range v.Curve {
		if len(p.P) != 2 || p.P[0] != s.Curve[i].T || p.Time != s.Curve[i].Time {
			return false
		}
	}
	return true
}

func spmmMultiWorkload(b *testing.B, gpus int, name string) core.PartitionWorkload {
	b.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := d.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	w, err := hetspmm.NewMultiWorkload(name, m, hetspmm.NewMultiAlgorithm(hetsim.DefaultMulti(gpus)))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchScenario(devices int) *hetsim.Scenario {
	// Same spec as the hetsim acceptance tests: skewed enough that the
	// optimum differs from the FLOPS-ratio vector, so the descent has
	// real work to do.
	return hetsim.NewScenario("scenario", hetsim.ScenarioSpec{
		Platform: hetsim.DefaultMulti(devices - 1),
		Skew:     0.6,
		CV:       0.8,
		CVSlope:  1.5,
	})
}

// BenchmarkPartition drives the parity pair and the simplex cases and
// writes the BENCH_partition.json report.
func BenchmarkPartition(b *testing.B) {
	rep := benchfmt.New()
	ctx := core.WithParallelism(context.Background(), benchParallelism)

	// Parity: the expensive CC search from BenchmarkSearch, run as a
	// scalar search and as a 2-device partition search. germany_osm
	// keeps per-evaluation cost high enough that the axis view's
	// per-call overhead (share assembly, pool round-trip) is measured
	// against realistic work, not against a no-op.
	scalarW := ccWorkload(b, hetsim.Default(), "germany_osm")
	vectorW := scalarW.(core.PartitionWorkload)
	axis := core.CoarseToFine{}
	vector := core.SimplexSearch{Axis: axis}
	var scalarRes core.SearchResult
	var vectorRes core.SimplexResult
	overhead := pairRatio(loop(func() {
		r, err := vector.SearchPartition(ctx, vectorW, 0, 100)
		if err != nil {
			b.Fatal(err)
		}
		vectorRes = r
	}), searchArm(b, axis, scalarW, benchParallelism, &scalarRes), parallelArmTime)
	identical := parityIdentical(scalarRes, vectorRes)
	if !identical {
		sj, _ := json.Marshal(scalarRes)
		vj, _ := json.Marshal(vectorRes)
		b.Errorf("2-device vector search differs from scalar:\n  scalar %s\n  vector %s", sj, vj)
	}
	parity := "parity/" + axis.Name() + "/cc/germany_osm"
	rep.Rows = append(rep.Rows,
		benchfmt.Row{Layer: "partition", Case: parity, Metric: "identical", Value: boolValue(identical),
			Unit: "bool", Better: "higher", Cores: benchParallelism, Min: benchfmt.Bound(1)},
		benchfmt.Row{Layer: "partition", Case: parity, Metric: "overhead", Value: overhead,
			Unit: "x", Better: "lower", Cores: benchParallelism, Max: benchfmt.Bound(1.5)})

	// Simplex: coordinate descent at 3 and 4 devices on the analytic
	// scenario, and on a real SpMM prefix-split. The scenario's
	// evaluations are closed-form, so a step-1 exhaustive sweep (~5k
	// evaluations at 3 devices) is affordable and the recorded gap is
	// exact; step 5 keeps the SpMM sweep at ~200 cheap profile lookups,
	// and its gap is against that grid's optimum.
	cases := []struct {
		w         core.PartitionWorkload
		workload  string
		dataset   string
		search    core.SimplexSearch
		sweepStep float64 // 0: no sweep
	}{
		{benchScenario(3), "scenario", "synthetic", core.SimplexSearch{}, 1},
		{benchScenario(4), "scenario", "synthetic", core.SimplexSearch{}, 0},
		{spmmMultiWorkload(b, 2, "cant"), "spmm", "cant", core.SimplexSearch{Axis: core.RaceThenFine{Window: 4}}, 5},
	}
	for _, c := range cases {
		res, err := c.search.SearchPartition(ctx, c.w, 0, 100)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("simplex/d=%d/%s/%s", c.w.Devices(), c.workload, c.dataset)
		evals := benchfmt.Row{Layer: "partition", Case: name, Metric: "evals", Value: float64(res.Evals),
			Unit: "count", Better: "lower", Max: benchfmt.Bound(simplexEvalBudget)}
		if c.sweepStep == 0 {
			rep.Rows = append(rep.Rows, evals)
			continue
		}
		best, err := core.ExhaustiveSimplex{Step: c.sweepStep}.SearchPartition(ctx, c.w, 0, 100)
		if err != nil {
			b.Fatal(err)
		}
		evals.Max = benchfmt.Bound(float64(min(simplexEvalBudget, best.Evals-1)))
		gap := 100 * (float64(res.BestTime)/float64(best.BestTime) - 1)
		rep.Rows = append(rep.Rows, evals, benchfmt.Row{Layer: "partition", Case: name, Metric: "gap_pct",
			Value: gap, Unit: "%", Better: "lower", Max: benchfmt.Bound(5)})
	}
	writeReport(b, rep, "BENCH_partition.json")
}
