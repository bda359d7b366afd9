package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/hetdense"
)

// Fig1Row is one matrix size of the dense-MM motivation study.
type Fig1Row struct {
	// Label is "mat.n" as in the paper's X axis.
	Label string
	N     int
	// Thresholds: best exhaustive, sampling estimate, and the
	// FLOPS-ratio static split.
	Exhaustive, Estimated, NaiveStatic float64
	// Times at each threshold.
	ExhaustiveTime, EstimatedTime, NaiveStaticTime time.Duration
}

// Fig1Result holds the dense matrix multiplication study.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1Sizes is the swept matrix-dimension ladder, the paper's
// mat.1k … mat.8k. Dense evaluations are closed-form (no per-element
// execution), so full-size sweeps are free.
var Fig1Sizes = []int{1024, 2048, 4096, 8192}

// Fig1 reproduces the introduction's motivation experiment: for dense
// (regular) matrix multiplication, the FLOPS-ratio static threshold is
// already close to the best possible threshold, and the sampling
// estimate agrees with both. Elements are uniform random reals, as in
// the paper.
func Fig1(opts Options) (*Fig1Result, error) {
	o := opts.withDefaults()
	alg := hetdense.NewAlgorithm(o.Platform)
	static := o.Platform.StaticShares()[0]
	rows, err := forEach(Fig1Sizes, func(n int) (Fig1Row, error) {
		w, err := hetdense.NewWorkload(fmt.Sprintf("mat.%d", n), n, alg)
		if err != nil {
			return Fig1Row{}, err
		}
		best, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: o.Parallelism})
		if err != nil {
			return Fig1Row{}, err
		}
		est, estTime, err := estimateAndRun(w, nil, o.Seed^uint64(n), o)
		if err != nil {
			return Fig1Row{}, err
		}
		staticTime, err := w.Evaluate(static)
		if err != nil {
			return Fig1Row{}, err
		}
		return Fig1Row{
			Label:           fmt.Sprintf("mat.%d", n),
			N:               n,
			Exhaustive:      best.Best,
			Estimated:       est.Threshold,
			NaiveStatic:     static,
			ExhaustiveTime:  best.BestTime,
			EstimatedTime:   estTime,
			NaiveStaticTime: staticTime,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Rows: rows}, nil
}

// MaxStaticGapPct returns the largest relative gap between the static
// split's time and the best time — the quantity Fig. 1 argues is small
// for regular work.
func (r *Fig1Result) MaxStaticGapPct() float64 {
	gap := 0.0
	for _, row := range r.Rows {
		g := 100 * (float64(row.NaiveStaticTime)/float64(row.ExhaustiveTime) - 1)
		gap = math.Max(gap, g)
	}
	return gap
}

// Render writes the figure as text.
func (r *Fig1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 1 — dense MM: FLOPS-ratio static split vs best and sampled thresholds")
	fmt.Fprintf(w, "%-10s %10s %10s %11s %14s %14s %14s\n",
		"matrix", "exhaustive", "estimated", "naivestatic", "t_exh", "t_est", "t_static")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %10.1f %10.1f %11.1f %14v %14v %14v\n",
			row.Label, row.Exhaustive, row.Estimated, row.NaiveStatic,
			row.ExhaustiveTime.Round(time.Microsecond),
			row.EstimatedTime.Round(time.Microsecond),
			row.NaiveStaticTime.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "max static-split slowdown over best: %.2f%%\n", r.MaxStaticGapPct())
}
