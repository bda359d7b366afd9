package core_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
)

var updateEstimates = flag.Bool("update", false, "rewrite testdata/estimates.golden from the current code")

// goldenSearchers are the four Identify strategies hetserve serves.
var goldenSearchers = []core.Searcher{
	core.Exhaustive{},
	core.CoarseToFine{},
	core.GradientDescent{},
	core.RaceThenFine{Window: 4},
}

// goldenConfig is the estimation setting every golden row uses: the
// served repeat count, run on a repeat pool so the pooled merge is
// what the goldens pin.
func goldenConfig(s core.Searcher) core.Config {
	return core.Config{Searcher: s, Seed: 42, Repeats: 3, Parallelism: 4}
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// scalarRow runs EstimateThreshold and renders the outcome, exactly.
func scalarRow(label string, w core.Sampled, cfg core.Config) (string, *core.Estimate) {
	est, err := core.EstimateThreshold(context.Background(), w, cfg)
	if err != nil {
		return fmt.Sprintf("%s err=%q\n", label, err), nil
	}
	return fmt.Sprintf("%s threshold=%s sample=%s evals=%d sample_ns=%d identify_ns=%d\n",
		label, fmtFloat(est.Threshold), fmtFloat(est.SampleThreshold), est.Evals,
		int64(est.SampleCost), int64(est.IdentifyCost)), est
}

// partitionRow runs EstimatePartition and renders the outcome, exactly.
func partitionRow(label string, w core.SampledPartition, cfg core.Config) string {
	est, err := core.EstimatePartition(context.Background(), w, cfg)
	if err != nil {
		return fmt.Sprintf("%s err=%q\n", label, err)
	}
	return fmt.Sprintf("%s partition=%s sample=%s evals=%d sample_ns=%d identify_ns=%d\n",
		label, est.Partition, est.SamplePartition, est.Evals,
		int64(est.SampleCost), int64(est.IdentifyCost))
}

// scalarRows renders a cold row and a warm-started row per searcher.
// The warm start sits two units off the cold estimate, so every warm
// row runs a narrowed, off-center window.
func scalarRows(b *strings.Builder, prefix string, w core.Sampled) {
	for _, s := range goldenSearchers {
		label := prefix + " " + s.Name()
		row, est := scalarRow("scalar "+label, w, goldenConfig(s))
		b.WriteString(row)
		if est == nil {
			continue
		}
		cfg := goldenConfig(s)
		cfg.WarmStart = &core.WarmStart{Threshold: est.Threshold + 2}
		row, _ = scalarRow("warm   "+label, w, cfg)
		b.WriteString(row)
	}
}

// TestEstimatesGolden pins the estimation pipelines' exact outcomes —
// thresholds, partitions, sample-side values, evaluation counts and
// simulated costs in nanoseconds — over every Table II replica, both
// partitionable workloads and every served searcher, at 2 and 3
// devices, plus the scale-free study. Any refactor of the pipeline
// must reproduce this file byte for byte; -update rewrites it.
func TestEstimatesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every dataset replica")
	}
	plat := hetsim.Default()
	multi := hetsim.DefaultMulti(2)
	var b strings.Builder
	for _, d := range datasets.All() {
		g, err := d.Graph()
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Pattern()
		if err != nil {
			t.Fatal(err)
		}
		cc := hetcc.NewWorkload(d.Name, g, hetcc.NewAlgorithm(plat))
		spmm, err := hetspmm.NewWorkload(d.Name, m, hetspmm.NewAlgorithm(plat))
		if err != nil {
			t.Fatal(err)
		}
		ccMulti := hetcc.NewMultiWorkload(d.Name, g, hetcc.NewMultiAlgorithm(multi))
		spmmMulti, err := hetspmm.NewMultiWorkload(d.Name, m, hetspmm.NewMultiAlgorithm(multi))
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []struct {
			name   string
			scalar core.Sampled
			multi  core.SampledPartition
			def    core.Searcher
		}{
			{"cc", cc, ccMulti, core.CoarseToFine{}},
			{"spmm", spmm, spmmMulti, core.RaceThenFine{Window: 4}},
		} {
			prefix := wl.name + " " + d.Name
			scalarRows(&b, prefix, wl.scalar)
			two := wl.scalar.(core.SampledPartition)
			b.WriteString(partitionRow("d2     "+prefix+" "+wl.def.Name(), two, goldenConfig(wl.def)))
			b.WriteString(partitionRow("d3     "+prefix+" "+wl.def.Name(), wl.multi, goldenConfig(wl.def)))
		}
	}
	for _, d := range datasets.ScaleFreeSet() {
		m, err := d.Pattern()
		if err != nil {
			t.Fatal(err)
		}
		w, err := hetscale.NewWorkload(d.Name, m, hetscale.NewAlgorithm(plat))
		if err != nil {
			t.Fatal(err)
		}
		scalarRows(&b, "scalefree "+d.Name, w)
	}
	got := b.String()

	const path = "testdata/estimates.golden"
	if *updateEstimates {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("estimates differ from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("estimates differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
