package repro

// BenchmarkPartition measures the N-device partition-vector search and
// writes BENCH_partition.json.
//
//	go test -run '^$' -bench=BenchmarkPartition -benchtime=1x .
//
// The report has three kinds of rows:
//
//   - parity: the same scalar searcher run over the same 2-device
//     hetcc workload through Searcher.Search on its scalar interface
//     and through SimplexSearch on its partition interface, in
//     alternating rounds. The vector path must produce the
//     bit-identical result (identical, floor 1), and its wall-clock
//     overhead (vector/scalar) stays under 1.5× so the simplex
//     machinery cannot quietly grow a tax.
//
//   - simplex: the served coordinate descent on the full input of
//     cant, for CC at 3 and 4 devices and for SpMM at 3. Each records
//     its evaluations, capped at 1000 and below the count of the
//     exhaustive sweep it is compared against, and gap_pct, how far the
//     descent's best partition runs above the sweep's optimum, capped
//     at the paper-level 5%.
//
//   - estimate: the served sampled pipeline (EstimatePartition, seed
//     42, 3 repeats) for CC and SpMM at 3 and 4 devices on cant,
//     webbase-1M and netherlands_osm. gap_pct is how far its answer
//     runs on the full input above a step-5 sweep's optimum. The rows
//     carry no absolute bound: simulated time makes them deterministic
//     pins that benchdiff's regression rule holds, and the ones above
//     5% are known misses.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
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

// multiWorkload builds a Table II replica's workload on the default
// cascade of the given device count, as hetserve does for ?devices=N.
func multiWorkload(b *testing.B, workload string, devices int, name string) core.SampledPartition {
	b.Helper()
	d, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	mp := hetsim.DefaultMulti(devices - 1)
	if workload == "cc" {
		g, err := d.Graph()
		if err != nil {
			b.Fatal(err)
		}
		return hetcc.NewMultiWorkload(name, g, hetcc.NewMultiAlgorithm(mp))
	}
	m, err := d.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	w, err := hetspmm.NewMultiWorkload(name, m, hetspmm.NewMultiAlgorithm(mp))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// servedAxis is the per-axis searcher hetserve runs when a request
// names none: race-then-fine for SpMM, coarse-to-fine for CC.
func servedAxis(workload string) core.Searcher {
	if workload == "spmm" {
		return core.RaceThenFine{Window: 4}
	}
	return core.CoarseToFine{}
}

// BenchmarkPartition drives the parity pair, the simplex cases and the
// estimate rows and writes the BENCH_partition.json report.
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

	// Every real workload is built once per (workload, replica, device
	// count) and every exhaustive sweep run once per step on it, so the
	// simplex and estimate rows that share a reference share its cost.
	type multiKey struct {
		workload, dataset string
		devices           int
	}
	type sweepKey struct {
		multiKey
		step float64
	}
	workloads := map[multiKey]core.SampledPartition{}
	sweeps := map[sweepKey]core.SimplexResult{}
	reference := func(k multiKey, step float64) (core.SampledPartition, core.SimplexResult) {
		w, ok := workloads[k]
		if !ok {
			w = multiWorkload(b, k.workload, k.devices, k.dataset)
			workloads[k] = w
		}
		best, ok := sweeps[sweepKey{k, step}]
		if !ok {
			var err error
			if best, err = (core.ExhaustiveSimplex{Step: step}).SearchPartition(ctx, w, 0, 100); err != nil {
				b.Fatal(err)
			}
			sweeps[sweepKey{k, step}] = best
		}
		return w, best
	}
	gapPct := func(d, best time.Duration) float64 { return 100 * (float64(d)/float64(best) - 1) }

	// Simplex: the served per-axis descent on the full input at 3 and 4
	// devices, against an exhaustive sweep. cant's CC evaluations take
	// about 1.7 ms, so a step-1 sweep (5,151 points) is affordable at 3
	// devices and the recorded gap is exact; step 5 keeps the 4-device
	// sweep at 1,771 points and the SpMM one at 231 profile lookups, and
	// their gaps are against that grid's optimum.
	for _, c := range []struct {
		k         multiKey
		sweepStep float64
	}{
		{multiKey{"cc", "cant", 3}, 1},
		{multiKey{"cc", "cant", 4}, 5},
		{multiKey{"spmm", "cant", 3}, 5},
	} {
		w, best := reference(c.k, c.sweepStep)
		res, err := core.SimplexSearch{Axis: servedAxis(c.k.workload)}.SearchPartition(ctx, w, 0, 100)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("simplex/d=%d/%s/%s", c.k.devices, c.k.workload, c.k.dataset)
		rep.Rows = append(rep.Rows,
			benchfmt.Row{Layer: "partition", Case: name, Metric: "evals", Value: float64(res.Evals),
				Unit: "count", Better: "lower", Max: benchfmt.Bound(float64(min(simplexEvalBudget, best.Evals-1)))},
			benchfmt.Row{Layer: "partition", Case: name, Metric: "gap_pct", Value: gapPct(res.BestTime, best.BestTime),
				Unit: "%", Better: "lower", Max: benchfmt.Bound(5)})
	}

	// Estimate: the served sampled pipeline (seed 42, 3 repeats, the
	// served axis), its answer run on the full input against a step-5
	// sweep. No absolute bound: these are deterministic pins the
	// regression rule holds, and several are known misses above 5%
	// (EXPERIMENTS.md lists them).
	for _, workload := range []string{"cc", "spmm"} {
		for _, devices := range []int{3, 4} {
			for _, dataset := range []string{"cant", "webbase-1M", "netherlands_osm"} {
				k := multiKey{workload, dataset, devices}
				w, best := reference(k, 5)
				est, err := core.EstimatePartition(ctx, w, core.Config{Seed: 42, Repeats: 3, Searcher: servedAxis(workload)})
				if err != nil {
					b.Fatal(err)
				}
				d, err := w.EvaluatePartition(est.Partition)
				if err != nil {
					b.Fatal(err)
				}
				rep.Rows = append(rep.Rows, benchfmt.Row{Layer: "partition",
					Case:   fmt.Sprintf("estimate/d=%d/%s/%s", devices, workload, dataset),
					Metric: "gap_pct", Value: gapPct(d, best.BestTime), Unit: "%", Better: "lower"})
			}
		}
	}
	writeReport(b, rep, "BENCH_partition.json")
}
