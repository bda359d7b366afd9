// Connected-components case study (paper Section III): run the full
// threshold-estimation pipeline on a Table II road-network replica,
// comparing sampling against exhaustive search, the FLOPS-ratio static
// split, and a GPU-only execution — and show the per-phase timeline.
//
//	go run ./examples/cc
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetsim"
)

func main() {
	d, err := datasets.ByName("netherlands_osm")
	if err != nil {
		log.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d vertices, %d arcs (replica of %d/%d)\n\n",
		d.Name, g.N, g.Arcs(), d.PaperN, d.PaperNNZ)

	platform := hetsim.Default()
	alg := hetcc.NewAlgorithm(platform)
	w := hetcc.NewWorkload(d.Name, g, alg)

	// The four ways to choose a threshold.
	est, err := core.EstimateThreshold(context.Background(), w, core.Config{Seed: 42, Repeats: 3})
	if err != nil {
		log.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	static := platform.StaticShares()[0]

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tthreshold\tsimulated time\tnote")
	report := func(name string, t float64, note string) {
		dur, err := w.Evaluate(t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%v\t%s\n", name, t, dur, note)
	}
	report("exhaustive", best.Best, fmt.Sprintf("search itself costs %v", best.Cost))
	report("sampling", est.Threshold, fmt.Sprintf("overhead %v", est.Overhead()))
	report("naive-static", static, "FLOPS-ratio split")
	gpuOnly, err := alg.RunGPUOnly(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(tw, "gpu-only\t-\t%v\tno partitioning\n", gpuOnly.Time)
	tw.Flush()

	// Drill into the run at the estimated threshold.
	res, err := alg.Run(g, core.Partition{est.Threshold, 100 - est.Threshold})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nper-phase timeline at t=%.1f (found %d components):\n%s",
		est.Threshold, res.Components, res.Trace.String())
}
