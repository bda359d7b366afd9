package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
)

// fastOpts restricts experiments to a small dataset subset so the test
// suite stays quick; the full sets run via cmd/hetexp and the benches.
func fastOpts(names ...string) Options {
	return Options{Seed: 7, Repeats: 1, Names: names}
}

func TestSummarize(t *testing.T) {
	rows := []CaseRow{
		{ThresholdDiffPct: 2, TimeDiffPct: 4, OverheadPct: 10},
		{ThresholdDiffPct: 4, TimeDiffPct: 8, OverheadPct: 20},
	}
	s := Summarize("x", rows)
	if s.ThresholdDiffPct != 3 || s.TimeDiffPct != 6 || s.OverheadPct != 15 || s.Rows != 2 {
		t.Errorf("summary = %+v", s)
	}
	empty := Summarize("y", nil)
	if empty.Rows != 0 || empty.ThresholdDiffPct != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestFig1(t *testing.T) {
	r, err := Fig1(Options{Seed: 3, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig1Sizes) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Regular workload: static split within 25% of the best time.
		gap := float64(row.NaiveStaticTime) / float64(row.ExhaustiveTime)
		if gap > 1.25 {
			t.Errorf("%s: static gap %.2f", row.Label, gap)
		}
		if row.ExhaustiveTime <= 0 {
			t.Errorf("%s: zero time", row.Label)
		}
	}
	// Larger sizes agree better between estimate and best.
	last := r.Rows[len(r.Rows)-1]
	if d := last.Estimated - last.Exhaustive; d > 5 || d < -5 {
		t.Errorf("largest size estimate %v vs best %v", last.Estimated, last.Exhaustive)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "mat.8192") {
		t.Error("render missing rows")
	}
}

func TestFig3Subset(t *testing.T) {
	r, err := Fig3(fastOpts("cant", "netherlands_osm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Exhaustive < 0 || row.Exhaustive > 100 {
			t.Errorf("%s: exhaustive %v", row.Dataset, row.Exhaustive)
		}
		if row.EstimatedTime < row.ExhaustiveTime {
			t.Errorf("%s: estimated run beats exhaustive optimum", row.Dataset)
		}
		if row.NaiveAverage == 0 {
			t.Errorf("%s: naive average not filled", row.Dataset)
		}
		if row.SearchCost <= row.ExhaustiveTime {
			t.Errorf("%s: exhaustive search cost %v implausibly small", row.Dataset, row.SearchCost)
		}
		if row.OverheadPct <= 0 || row.OverheadPct >= 100 {
			t.Errorf("%s: overhead %v", row.Dataset, row.OverheadPct)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "netherlands_osm") {
		t.Error("render missing dataset")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(fastOpts("netherlands_osm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 || len(r.Series[0].Points) != len(SampleSizeLadder) {
		t.Fatalf("series shape wrong: %+v", r.Series)
	}
	pts := r.Series[0].Points
	// Estimation cost must grow with the sample size.
	for i := 1; i < len(pts); i++ {
		if pts[i].EstimationTime <= pts[i-1].EstimationTime {
			t.Errorf("estimation time not increasing at %s", pts[i].Label)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "sqrt(n)") {
		t.Error("render missing ladder")
	}
	// MinimumNear reports where the total-time minimum sits.
	found := false
	for _, step := range SampleSizeLadder {
		if r.Series[0].MinimumNear(step.Label) {
			found = true
		}
	}
	if !found {
		t.Error("total-time minimum not on the ladder")
	}
	if (SensitivitySeries{}).MinimumNear("sqrt(n)") {
		t.Error("empty series claims a minimum")
	}
}

func TestFig5Subset(t *testing.T) {
	r, err := Fig5(fastOpts("cant", "web-BerkStan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ThresholdDiffPct > 30 {
			t.Errorf("%s: estimate off by %v", row.Dataset, row.ThresholdDiffPct)
		}
		// The heterogeneous best must beat GPU-only.
		if row.ExhaustiveTime >= row.NaiveTime {
			t.Errorf("%s: no heterogeneous advantage over GPU-only", row.Dataset)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(fastOpts("cant"))
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series[0].Points
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Label != "n/10" || pts[4].Label != "4n/10" {
		t.Errorf("ladder labels wrong: %v .. %v", pts[0].Label, pts[4].Label)
	}
	// Bigger samples must cost more to estimate with.
	if pts[4].EstimationTime <= pts[0].EstimationTime {
		t.Error("estimation cost not growing")
	}
}

func TestFig7BlocksVsRandom(t *testing.T) {
	r, err := Fig7(fastOpts("cant"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 { // random + 4 blocks
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var random, worstBlock float64
	for _, row := range r.Rows {
		diff := row.Estimated - row.Exhaustive
		if diff < 0 {
			diff = -diff
		}
		if row.Strategy == "random" {
			random = diff
		} else if diff > worstBlock {
			worstBlock = diff
		}
	}
	// The paper's point: at least one predetermined block is clearly
	// worse than the random sample.
	if worstBlock <= random {
		t.Errorf("no block bias: worst block %v vs random %v", worstBlock, random)
	}
}

func TestFig8Subset(t *testing.T) {
	r, err := Fig8(fastOpts("cant", "web-BerkStan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.OverheadPct > 15 {
			t.Errorf("%s: overhead %v%% (paper: ~1%%)", row.Dataset, row.OverheadPct)
		}
		if row.TimeDiffPct > 60 {
			t.Errorf("%s: slowdown %v%%", row.Dataset, row.TimeDiffPct)
		}
	}
}

func TestFig8ExcludesNonScaleFree(t *testing.T) {
	r, err := Fig8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Dataset == "delaunay_n22" || row.Dataset == "qcd5_4" || strings.Contains(row.Dataset, "osm") {
			t.Errorf("non-scale-free dataset %s in Fig 8", row.Dataset)
		}
	}
	if len(r.Rows) != 9 {
		t.Errorf("rows = %d, want 9", len(r.Rows))
	}
}

// TestFig8NaiveIsGPUOnly pins Fig. 8's Naive column to the homogeneous
// GPU-only run. HH-CPU sends the rows denser than t to the CPU, so the
// top of the threshold range leaves the CPU no work and t = 0 none to
// the GPU.
func TestFig8NaiveIsGPUOnly(t *testing.T) {
	r, err := Fig8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	alg := hetscale.NewAlgorithm(hetsim.Default())
	for _, row := range r.Rows {
		d, err := datasets.ByName(row.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		w, err := hetscale.NewWorkload(row.Dataset, m, alg)
		if err != nil {
			t.Fatal(err)
		}
		_, hi := w.ThresholdRange()
		if cpu := w.Profile().CPUWorkAt(hi); cpu != 0 {
			t.Errorf("%s: CPUWorkAt(%v) = %d, want 0", row.Dataset, hi, cpu)
		}
		gpuOnly, err := w.Evaluate(hi)
		if err != nil {
			t.Fatal(err)
		}
		if row.NaiveTime != gpuOnly {
			t.Errorf("%s: NaiveTime = %v, GPU-only run = %v", row.Dataset, row.NaiveTime, gpuOnly)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(fastOpts("cant"))
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series[0].Points
	if len(pts) != len(SampleSizeLadder) {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].EstimationTime <= pts[i-1].EstimationTime {
			t.Errorf("estimation time not increasing at %s", pts[i].Label)
		}
	}
}

func TestTable1Aggregates(t *testing.T) {
	r, err := Table1(fastOpts("cant", "webbase-1M"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Summaries) != 3 {
		t.Fatalf("summaries = %d", len(r.Summaries))
	}
	names := []string{"CC", "spmm", "Scale-free spmm"}
	for i, s := range r.Summaries {
		if s.Workload != names[i] {
			t.Errorf("summary %d = %q", i, s.Workload)
		}
		if s.Rows == 0 {
			t.Errorf("summary %q empty", s.Workload)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "Threshold Diff") {
		t.Error("render missing header")
	}
}

func TestTable2(t *testing.T) {
	r, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets) != 15 {
		t.Fatalf("datasets = %d", len(r.Datasets))
	}
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{"cant", "asia_osm", "4007383"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRegistryAndRun(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("registry has %d entries", len(names))
	}
	var sb strings.Builder
	if err := Run("table2", Options{}, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Error("Run produced no output")
	}
	if err := Run("nope", Options{}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAblationSampler(t *testing.T) {
	r, err := AblationSampler(fastOpts("netherlands_osm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	// The contracted sampler's achieved time must not be worse than
	// the induced sampler's (the induced √n sample is nearly empty).
	if row.ContractedTime > row.InducedTime {
		t.Errorf("contracted %v worse than induced %v", row.ContractedTime, row.InducedTime)
	}
	if row.ExhaustiveTime > row.ContractedTime {
		t.Errorf("exhaustive optimum %v beaten by estimate %v", row.ExhaustiveTime, row.ContractedTime)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "induced") {
		t.Error("render missing columns")
	}
	if r.WorstInducedGap() < 0 {
		t.Errorf("WorstInducedGap = %v", r.WorstInducedGap())
	}
}

func TestAblationSearcher(t *testing.T) {
	r, err := AblationSearcher(fastOpts("cant"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var exhaustiveEvals, cheapest int
	cheapest = 1 << 30
	for _, row := range r.Rows {
		if row.GapPct > 5 {
			t.Errorf("%s found threshold %v with gap %v%%", row.Searcher, row.Best, row.GapPct)
		}
		if strings.HasPrefix(row.Searcher, "exhaustive") {
			exhaustiveEvals = row.Evals
		} else if row.Evals < cheapest {
			cheapest = row.Evals
		}
	}
	if cheapest >= exhaustiveEvals {
		t.Errorf("no searcher beats exhaustive's %d evals (best other: %d)", exhaustiveEvals, cheapest)
	}
}

func TestAblationPlatform(t *testing.T) {
	r, err := AblationPlatform(fastOpts("webbase-1M"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The optimal threshold must differ across platforms (>= 8 points
	// between the entry-level and the HBM-class GPU) and the estimate
	// must track it within 20 on each.
	if r.Spread() < 8 {
		t.Errorf("platform spread = %v, expected hardware-dependent optima", r.Spread())
	}
	for _, row := range r.Rows {
		diff := row.Estimated - row.Exhaustive
		if diff < 0 {
			diff = -diff
		}
		if diff > 25 {
			t.Errorf("%s: estimate %v vs best %v", row.Platform, row.Estimated, row.Exhaustive)
		}
	}
}

func TestOptionsWants(t *testing.T) {
	o := Options{}
	if !o.wants("anything") {
		t.Error("empty Names should accept all")
	}
	o.Names = []string{"a", "b"}
	if !o.wants("a") || o.wants("c") {
		t.Error("Names filter broken")
	}
}

func TestForEachPreservesOrderAndErrors(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	out, err := forEach(items, func(v int) (int, error) {
		time.Sleep(time.Duration(5-v) * time.Millisecond)
		return v * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != (i+1)*10 {
			t.Fatalf("out = %v", out)
		}
	}
	_, err = forEach(items, func(v int) (int, error) {
		if v == 3 {
			return 0, errBoom
		}
		return v, nil
	})
	if err != errBoom {
		t.Errorf("error not propagated: %v", err)
	}
}

var errBoom = errFixture("boom")

type errFixture string

func (e errFixture) Error() string { return string(e) }
