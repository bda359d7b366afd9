package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// expectProblem asserts that compare reports a problem mentioning want;
// expectClean asserts that it reports none.
func expectProblem(t *testing.T, baseline, current benchfmt.Report, want string) {
	t.Helper()
	problems := compare(baseline, current)
	for _, p := range problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Fatalf("no problem mentions %q; got %v", want, problems)
}

func expectClean(t *testing.T, baseline, current benchfmt.Report) {
	t.Helper()
	if problems := compare(baseline, current); len(problems) > 0 {
		t.Fatalf("expected a clean comparison, got %v", problems)
	}
}

// expectNone asserts that no problem mentions unwanted.
func expectNone(t *testing.T, baseline, current benchfmt.Report, unwanted string) {
	t.Helper()
	for _, p := range compare(baseline, current) {
		if strings.Contains(p, unwanted) {
			t.Fatalf("unexpected problem %q", p)
		}
	}
}

// set changes the value of the row with the given key.
func set(rep benchfmt.Report, key string, v float64) benchfmt.Report {
	for i := range rep.Rows {
		if rep.Rows[i].Key() == key {
			rep.Rows[i].Value = v
			return rep
		}
	}
	panic("no row " + key)
}

// drop removes the row with the given key.
func drop(rep benchfmt.Report, key string) benchfmt.Report {
	for i := range rep.Rows {
		if rep.Rows[i].Key() == key {
			rep.Rows = append(rep.Rows[:i], rep.Rows[i+1:]...)
			return rep
		}
	}
	panic("no row " + key)
}

func TestCompare(t *testing.T) {
	host := func(gomaxprocs, numCPU int, rows ...benchfmt.Row) benchfmt.Report {
		return benchfmt.Report{GOMAXPROCS: gomaxprocs, NumCPU: numCPU, Rows: rows}
	}
	higher := func(v float64) benchfmt.Row {
		return benchfmt.Row{Layer: "l", Case: "c", Metric: "speedup", Value: v, Unit: "x", Better: "higher"}
	}
	lower := func(v float64) benchfmt.Row {
		return benchfmt.Row{Layer: "l", Case: "c", Metric: "gap", Value: v, Unit: "%", Better: "lower"}
	}
	par := func(v float64, cores int) benchfmt.Row {
		return benchfmt.Row{Layer: "l", Case: "c", Metric: benchfmt.ParallelSpeedup, Value: v, Unit: "x", Better: "higher", Cores: cores}
	}
	bounded := func(r benchfmt.Row, lo, hi *float64) benchfmt.Row {
		r.Min, r.Max = lo, hi
		return r
	}
	other := higher(1)
	other.Case = "other"

	cases := []struct {
		name              string
		baseline, current benchfmt.Report
		want              string // "" means clean
	}{
		{"higher regresses beyond tolerance", host(4, 4, higher(10)), host(4, 4, higher(6.9)), "regressed"},
		{"higher within tolerance", host(4, 4, higher(10)), host(4, 4, higher(7.1)), ""},
		{"lower regresses beyond tolerance", host(4, 4, lower(10)), host(4, 4, lower(13.1)), "regressed"},
		{"lower within tolerance", host(4, 4, lower(10)), host(4, 4, lower(12.9)), ""},
		{"negative lower-better value unchanged", host(4, 4, lower(-0.7)), host(4, 4, lower(-0.7)), ""},
		{"missing row", host(4, 4, higher(1), other), host(4, 4, higher(1)), "missing"},
		{"new row", host(4, 4, higher(1)), host(4, 4, higher(1), other), ""},
		{"current min", host(4, 4, higher(1)), host(4, 4, bounded(higher(1), benchfmt.Bound(1.3), nil)), "below the floor 1.3"},
		{"baseline max", host(4, 4, bounded(lower(1), nil, benchfmt.Bound(1.2))), host(4, 4, lower(1.25)), "above the ceiling 1.2"},
		{"min and max hold", host(4, 4, higher(1)), host(4, 4, bounded(higher(1), benchfmt.Bound(1), benchfmt.Bound(1))), ""},
		{"e mismatch", host(2, 2, par(1.8, 8)), host(4, 4, par(1.8, 8)), "not comparable"},
		{"e mismatch from num_cpu", host(4, 4, par(1.8, 8)), host(4, 2, par(1.8, 8)), "not comparable"},
		{"same e on different hosts", host(2, 2, par(1.8, 2)), host(8, 16, par(1.8, 2)), ""},
		{"rows without cores compare anywhere", host(4, 4, higher(1)), host(1, 1, higher(1)), ""},
		{"parallel speedup above e", host(2, 2, par(2.3, 8)), host(2, 2, par(2.3, 8)), "exceeds the 2 effective core(s)"},
		{"parallel speedup at e", host(2, 2, par(2, 8)), host(2, 2, par(2, 8)), ""},
		{"other speedups may exceed e", host(1, 1, higher(40)), host(1, 1, higher(40)), ""},
		{"non-positive ratio", host(4, 4, higher(1)), host(4, 4, higher(0)), "non-positive"},
		{"non-positive timing", host(4, 4, higher(1)), host(4, 4, benchfmt.Row{Layer: "l", Case: "t", Metric: "wall", Unit: "ms", Better: "lower"}), "non-positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.want == "" {
				expectClean(t, c.baseline, c.current)
			} else {
				expectProblem(t, c.baseline, c.current, c.want)
			}
		})
	}
}

// The fixtures below have the shape the four benchmarks write.

const (
	exhaustive = "search/exhaustive(step=1)/cc/germany_osm/"
	rtf        = "search/race-then-fine/spmm/cant/"
)

func goodReport() benchfmt.Report {
	return benchfmt.Report{GOMAXPROCS: 4, NumCPU: 4, Rows: []benchfmt.Row{
		{Layer: "search", Case: "exhaustive(step=1)/cc/germany_osm", Metric: benchfmt.ParallelSpeedup, Value: 3.5,
			Unit: "x", Better: "higher", Cores: 8, Min: benchfmt.Bound(1.5)},
		{Layer: "search", Case: "exhaustive(step=1)/cc/germany_osm", Metric: "identical", Value: 1,
			Unit: "bool", Better: "higher", Cores: 8, Min: benchfmt.Bound(1)},
	}}
}

// withCheapCase adds the microsecond race-then-fine case, which has no
// speedup floor.
func withCheapCase(rep benchfmt.Report, speedup float64) benchfmt.Report {
	rep.Rows = append(rep.Rows,
		benchfmt.Row{Layer: "search", Case: "race-then-fine/spmm/cant", Metric: benchfmt.ParallelSpeedup, Value: speedup,
			Unit: "x", Better: "higher", Cores: 8},
		benchfmt.Row{Layer: "search", Case: "race-then-fine/spmm/cant", Metric: "identical", Value: 1,
			Unit: "bool", Better: "higher", Cores: 8, Min: benchfmt.Bound(1)})
	return rep
}

func TestCleanDiffPasses(t *testing.T) {
	expectClean(t, goodReport(), goodReport())
}

func TestSingleCoreBaselineIsHardFailure(t *testing.T) {
	// Two single-core recordings are comparable (e = 1 on both), but
	// neither can pass: a parallel speedup above 1 is an artifact, and
	// an honest ~1x misses the floor.
	single := func(speedup float64) benchfmt.Report {
		r := set(goodReport(), exhaustive+benchfmt.ParallelSpeedup, speedup)
		r.GOMAXPROCS = 1
		return r
	}
	expectProblem(t, single(3.5), single(3.5), "measurement artifact")
	expectProblem(t, single(0.95), single(0.95), "below the floor 1.5")
}

func TestGomaxprocsMismatchIsHardFailure(t *testing.T) {
	current := goodReport()
	current.GOMAXPROCS = 2
	expectProblem(t, goodReport(), current, "not comparable")
}

func TestEnvironmentFailureSuppressesCaseChecks(t *testing.T) {
	baseline := goodReport()
	baseline.GOMAXPROCS = 2
	current := set(goodReport(), exhaustive+"identical", 0)
	expectProblem(t, baseline, current, "not comparable")
	expectNone(t, baseline, current, "floor")
}

func TestNonIdenticalResultFails(t *testing.T) {
	expectProblem(t, goodReport(), set(goodReport(), exhaustive+"identical", 0), "below the floor 1")
}

func TestSpeedupRegressionFails(t *testing.T) {
	// Above the 1.5 floor but below 3.5 * 0.7 = 2.45.
	expectProblem(t, goodReport(), set(goodReport(), exhaustive+benchfmt.ParallelSpeedup, 2.0), "regressed")
}

func TestSpeedupWithinTolerancePasses(t *testing.T) {
	expectClean(t, goodReport(), set(goodReport(), exhaustive+benchfmt.ParallelSpeedup, 2.6))
}

func TestMissingBaselineCaseFails(t *testing.T) {
	current := withCheapCase(goodReport(), 1)
	current = drop(drop(current, exhaustive+benchfmt.ParallelSpeedup), exhaustive+"identical")
	expectProblem(t, goodReport(), current, "missing from the current report")
}

func TestNewCaseWithoutBaselinePasses(t *testing.T) {
	expectClean(t, goodReport(), withCheapCase(goodReport(), 1))
}

func TestMinSpeedupRequiresAnExpensiveWinner(t *testing.T) {
	// No regression against the baseline, but never fast.
	slow := set(goodReport(), exhaustive+benchfmt.ParallelSpeedup, 1.1)
	expectProblem(t, slow, slow, "below the floor 1.5")
}

func TestMinSpeedupIgnoresCheapCases(t *testing.T) {
	// A microsecond-scale search cannot amortize fan-out overhead; it
	// carries no floor, only the regression rule.
	expectClean(t, withCheapCase(goodReport(), 0.9), withCheapCase(goodReport(), 0.9))
	expectProblem(t, withCheapCase(goodReport(), 0.9), withCheapCase(goodReport(), 0.5), rtf+benchfmt.ParallelSpeedup+": regressed")
}

func TestLowCPUCountRecordingIsHardFailure(t *testing.T) {
	// Fewer CPUs than the parallel arm uses lower e; the recording then
	// cannot gate, or be gated by, one with more.
	low := goodReport()
	low.NumCPU = 1
	expectProblem(t, low, goodReport(), "not comparable")
	low.NumCPU = 2
	expectProblem(t, goodReport(), low, "not comparable")
}

func TestLowCPUCountSuppressesCaseChecks(t *testing.T) {
	baseline := goodReport()
	baseline.NumCPU = 1
	current := set(goodReport(), exhaustive+benchfmt.ParallelSpeedup, 0.5)
	expectNone(t, baseline, current, "regressed")
	expectNone(t, baseline, current, "floor")
}

const batchCase = "batch/items=8/backends=3/"

func goodBatchReport() benchfmt.Report {
	row := func(metric string, v float64, unit, better string, cores int, lo, hi *float64) benchfmt.Row {
		return benchfmt.Row{Layer: "batch", Case: "items=8/backends=3", Metric: metric, Value: v,
			Unit: unit, Better: better, Cores: cores, Min: lo, Max: hi}
	}
	return benchfmt.Report{GOMAXPROCS: 4, NumCPU: 4, Rows: []benchfmt.Row{
		row("speedup", 2.6, "x", "higher", 3, benchfmt.Bound(2), nil),
		row("ttfr_frac", 0.33, "x", "lower", 3, nil, benchfmt.Bound(0.9)),
		row("admissions_per_job", 2.5, "count", "lower", 0, nil, benchfmt.Bound(3)),
		row("builds_per_job", 8, "count", "lower", 0, nil, benchfmt.Bound(8)),
		row("errors", 0, "count", "lower", 0, nil, benchfmt.Bound(0)),
	}}
}

func TestBatchCleanDiffPasses(t *testing.T) {
	expectClean(t, goodBatchReport(), goodBatchReport())
}

func TestBatchSingleCoreRecordingIsHardFailure(t *testing.T) {
	single := goodBatchReport()
	single.GOMAXPROCS = 1
	expectProblem(t, single, goodBatchReport(), "not comparable")
	expectProblem(t, goodBatchReport(), single, "not comparable")
}

func TestBatchGomaxprocsMismatchIsHardFailure(t *testing.T) {
	current := goodBatchReport()
	current.GOMAXPROCS = 2
	expectProblem(t, goodBatchReport(), current, "not comparable")
}

func TestBatchJobShapeChangeIsHardFailure(t *testing.T) {
	// The shape is part of the case name, so a different job shape
	// leaves every baseline row unmatched.
	current := goodBatchReport()
	for i := range current.Rows {
		current.Rows[i].Case = "items=16/backends=3"
	}
	expectProblem(t, goodBatchReport(), current, batchCase+"speedup: present in the baseline but missing")
}

func TestBatchErrorsFailTheGate(t *testing.T) {
	expectProblem(t, goodBatchReport(), set(goodBatchReport(), batchCase+"errors", 1), "above the ceiling 0")
}

func TestBatchAbsoluteMinSpeedupFails(t *testing.T) {
	// No regression against the baseline, but the amortization
	// contract itself is missed: batching must beat sequential by 2x.
	slow := set(goodBatchReport(), batchCase+"speedup", 1.4)
	expectProblem(t, slow, slow, "below the floor 2")
}

func TestBatchSpeedupRegressionFails(t *testing.T) {
	// Above the 2.0 floor but below 4.0 * 0.7 = 2.8.
	expectProblem(t, set(goodBatchReport(), batchCase+"speedup", 4), set(goodBatchReport(), batchCase+"speedup", 2.1), "regressed")
}

func TestBatchBufferedStreamFails(t *testing.T) {
	// TTFR == TTLR means nothing streamed before the job finished.
	expectProblem(t, goodBatchReport(), set(goodBatchReport(), batchCase+"ttfr_frac", 1), "above the ceiling 0.9")
}

func TestBatchPerItemAdmissionsFail(t *testing.T) {
	// One admission per item: amortization lost.
	expectProblem(t, goodBatchReport(), set(goodBatchReport(), batchCase+"admissions_per_job", 8), "above the ceiling 3")
}

func TestBatchRebuildsFail(t *testing.T) {
	// Every item built twice.
	expectProblem(t, goodBatchReport(), set(goodBatchReport(), batchCase+"builds_per_job", 16), "above the ceiling 8")
}

func goodKernelReport() benchfmt.Report {
	r := benchfmt.Report{GOMAXPROCS: 1, NumCPU: 1}
	logSum := 0.0
	for _, k := range []struct {
		name    string
		speedup float64
	}{{"loadvec/germany_osm", 1.6}, {"cc-dfs-prefix/germany_osm", 1.2}, {"split-grid/germany_osm", 40}} {
		r.Rows = append(r.Rows, benchfmt.Row{Layer: "kernels", Case: k.name, Metric: "speedup", Value: k.speedup, Unit: "x", Better: "higher"})
		logSum += math.Log(k.speedup)
	}
	r.Rows = append(r.Rows, benchfmt.Row{Layer: "kernels", Case: "geomean", Metric: "speedup",
		Value: math.Exp(logSum / 3), Unit: "x", Better: "higher", Min: benchfmt.Bound(1.3)})
	return r
}

func TestKernelsCleanDiffPasses(t *testing.T) {
	expectClean(t, goodKernelReport(), goodKernelReport())
}

func TestKernelsSingleCoreRecordingIsAllowed(t *testing.T) {
	// Kernel rows time both arms on one core, so they carry no cores
	// and compare across hosts, including single-core ones.
	multi := goodKernelReport()
	multi.GOMAXPROCS, multi.NumCPU = 4, 4
	expectClean(t, goodKernelReport(), goodKernelReport())
	expectClean(t, multi, goodKernelReport())
}

func TestKernelsGeomeanBelowContractFails(t *testing.T) {
	slow := set(goodKernelReport(), "kernels/geomean/speedup", 1.05)
	expectProblem(t, slow, slow, "below the floor 1.3")
}

func TestKernelsPerKernelRegressionFails(t *testing.T) {
	// Below 40 * 0.7 = 28 while the geomean still clears its floor.
	expectProblem(t, goodKernelReport(), set(goodKernelReport(), "kernels/split-grid/germany_osm/speedup", 10), "regressed")
}

func TestKernelsMissingRowFails(t *testing.T) {
	expectProblem(t, goodKernelReport(), drop(goodKernelReport(), "kernels/cc-dfs-prefix/germany_osm/speedup"), "missing")
}

func TestKernelsNewRowWithoutBaselinePasses(t *testing.T) {
	current := goodKernelReport()
	current.Rows = append(current.Rows, benchfmt.Row{Layer: "kernels", Case: "symbolic/cant", Metric: "speedup", Value: 1, Unit: "x", Better: "higher"})
	expectClean(t, goodKernelReport(), current)
}

func TestKernelsBrokenTimingFails(t *testing.T) {
	expectProblem(t, goodKernelReport(), set(goodKernelReport(), "kernels/loadvec/germany_osm/speedup", 0), "recording is broken")
}

const (
	parity = "partition/parity/coarse-to-fine(8→1)/cc/germany_osm/"
	d3     = "partition/simplex/d=3/cc/cant/"
	d4     = "partition/simplex/d=4/cc/cant/"
	spmm3  = "partition/simplex/d=3/spmm/cant/"
)

func goodPartitionReport() benchfmt.Report {
	row := func(c, metric string, v float64, unit, better string, cores int, lo, hi *float64) benchfmt.Row {
		return benchfmt.Row{Layer: "partition", Case: c, Metric: metric, Value: v,
			Unit: unit, Better: better, Cores: cores, Min: lo, Max: hi}
	}
	const par = "parity/coarse-to-fine(8→1)/cc/germany_osm"
	return benchfmt.Report{GOMAXPROCS: 4, NumCPU: 4, Rows: []benchfmt.Row{
		row(par, "identical", 1, "bool", "higher", 8, benchfmt.Bound(1), nil),
		row(par, "overhead", 1.04, "x", "lower", 8, nil, benchfmt.Bound(1.5)),
		row("simplex/d=3/cc/cant", "evals", 149, "count", "lower", 0, nil, benchfmt.Bound(1000)),
		row("simplex/d=3/cc/cant", "gap_pct", 0, "%", "lower", 0, nil, benchfmt.Bound(5)),
		row("simplex/d=4/cc/cant", "evals", 374, "count", "lower", 0, nil, benchfmt.Bound(1000)),
		row("simplex/d=4/cc/cant", "gap_pct", -5.9, "%", "lower", 0, nil, benchfmt.Bound(5)),
		row("simplex/d=3/spmm/cant", "evals", 36, "count", "lower", 0, nil, benchfmt.Bound(230)),
		row("simplex/d=3/spmm/cant", "gap_pct", -0.7, "%", "lower", 0, nil, benchfmt.Bound(5)),
		row("estimate/d=4/spmm/webbase-1M", "gap_pct", 95.7, "%", "lower", 0, nil, nil),
	}}
}

func TestPartitionCleanDiffPasses(t *testing.T) {
	expectClean(t, goodPartitionReport(), goodPartitionReport())
}

func TestPartitionSingleCoreRecordingIsHardFailure(t *testing.T) {
	single := goodPartitionReport()
	single.GOMAXPROCS = 1
	expectProblem(t, single, goodPartitionReport(), parity+"overhead: not comparable")
}

func TestPartitionLowGomaxprocsIsHardFailure(t *testing.T) {
	low := goodPartitionReport()
	low.GOMAXPROCS = 2
	expectProblem(t, goodPartitionReport(), low, parity+"overhead: not comparable")
}

func TestPartitionLowCPUCountIsHardFailure(t *testing.T) {
	low := goodPartitionReport()
	low.NumCPU = 1
	expectProblem(t, goodPartitionReport(), low, parity+"overhead: not comparable")
}

func TestPartitionGomaxprocsMismatchIsHardFailure(t *testing.T) {
	wide := goodPartitionReport()
	wide.GOMAXPROCS, wide.NumCPU = 8, 8
	expectProblem(t, goodPartitionReport(), wide, parity+"overhead: not comparable")
}

func TestPartitionEnvironmentFailureSuppressesRowChecks(t *testing.T) {
	baseline := goodPartitionReport()
	baseline.GOMAXPROCS = 1
	current := set(goodPartitionReport(), parity+"identical", 0)
	expectProblem(t, baseline, current, parity+"identical: not comparable")
	expectNone(t, baseline, current, "floor")
}

func TestPartitionNonIdenticalParityFails(t *testing.T) {
	expectProblem(t, goodPartitionReport(), set(goodPartitionReport(), parity+"identical", 0), "below the floor 1")
}

func TestPartitionOverheadCapFails(t *testing.T) {
	// Growth within tolerance; the cap must still fire.
	taxed := set(goodPartitionReport(), parity+"overhead", 1.9)
	expectProblem(t, taxed, taxed, "above the ceiling 1.5")
}

func TestPartitionOverheadGrowthFails(t *testing.T) {
	// Under the 1.5 cap but over 1.04 * 1.3 = 1.352.
	expectProblem(t, goodPartitionReport(), set(goodPartitionReport(), parity+"overhead", 1.45), "regressed")
}

func TestPartitionEvalBudgetFails(t *testing.T) {
	expectProblem(t, goodPartitionReport(), set(goodPartitionReport(), d4+"evals", 1500), "above the ceiling 1000")
}

func TestPartitionDescentCostlierThanSweepFails(t *testing.T) {
	// As many evaluations as the 231-point sweep: no saving.
	expectProblem(t, goodPartitionReport(), set(goodPartitionReport(), spmm3+"evals", 231), "above the ceiling 230")
}

func TestPartitionGapOverAcceptanceBarFails(t *testing.T) {
	expectProblem(t, goodPartitionReport(), set(goodPartitionReport(), d3+"gap_pct", 7.2), "above the ceiling 5")
}

func TestPartitionMissingSimplexRowFails(t *testing.T) {
	expectProblem(t, goodPartitionReport(), drop(goodPartitionReport(), spmm3+"evals"), "missing")
}

func TestPartitionNewRowWithoutBaselinePasses(t *testing.T) {
	current := goodPartitionReport()
	current.Rows = append(current.Rows, benchfmt.Row{Layer: "partition", Case: "simplex/d=5/cc/cant",
		Metric: "evals", Value: 400, Unit: "count", Better: "lower", Max: benchfmt.Bound(1000)})
	expectClean(t, goodPartitionReport(), current)
}
