// Package experiments regenerates every table and figure of the
// paper's evaluation on the simulated platform:
//
//	Fig. 1   dense MM motivation (hetdense)
//	Table I  summary of the three case studies
//	Table II dataset registry
//	Fig. 3   CC thresholds and times (hetcc)
//	Fig. 4   CC sample-size sensitivity
//	Fig. 5   SpMM split percentages and times (hetspmm)
//	Fig. 6   SpMM sample-size sensitivity
//	Fig. 7   random vs predetermined samples
//	Fig. 8   scale-free SpMM thresholds and times (hetscale)
//	Fig. 9   scale-free sample-size sensitivity
//
// Each runner returns structured rows and can render itself as the
// text equivalent of the paper's plot. Absolute numbers come from the
// simulator, so only the qualitative shape is comparable to the paper
// (who wins, by what factor, where the minima sit); EXPERIMENTS.md
// records both sides.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/hetsim"
)

// Options configures an experiment run.
type Options struct {
	// Platform defaults to hetsim.Default().
	Platform *hetsim.Platform
	// Seed drives all sampling randomness.
	Seed uint64
	// Names restricts dataset-driven experiments to the given
	// dataset names (nil means the paper's full set for that
	// experiment).
	Names []string
	// Repeats is the number of independent samples per estimate
	// (median taken); 0 means 3.
	Repeats int
	// Parallelism is the number of concurrent threshold evaluations
	// per search (0 means GOMAXPROCS, 1 means sequential). Results
	// are identical at any setting; only wall-clock time changes.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Platform == nil {
		o.Platform = hetsim.Default()
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	return o
}

func (o Options) wants(name string) bool {
	if len(o.Names) == 0 {
		return true
	}
	for _, n := range o.Names {
		if n == name {
			return true
		}
	}
	return false
}

// namesOr returns the requested dataset names, or defaults when none
// were given.
func (o Options) namesOr(defaults ...string) []string {
	if len(o.Names) == 0 {
		return defaults
	}
	return o.Names
}

// pick returns the datasets of set that the options ask for.
func (o Options) pick(set []datasets.Dataset) []datasets.Dataset {
	var ds []datasets.Dataset
	for _, d := range set {
		if o.wants(d.Name) {
			ds = append(ds, d)
		}
	}
	return ds
}

// CaseRow is one dataset's outcome in a threshold-estimation
// experiment (Figs. 3, 5, 8).
type CaseRow struct {
	Dataset string
	// Thresholds (percentage for CC/SpMM, row-density for HH-CPU).
	Exhaustive   float64
	Estimated    float64
	NaiveStatic  float64
	NaiveAverage float64
	// ThresholdDiffPct is |Estimated − Exhaustive| normalized to the
	// threshold range, in percent (for the [0,100] workloads this is
	// simply percentage points).
	ThresholdDiffPct float64
	// Simulated durations at each threshold; NaiveTime is the
	// homogeneous GPU-only baseline where applicable.
	ExhaustiveTime time.Duration
	EstimatedTime  time.Duration
	NaiveTime      time.Duration
	// TimeDiffPct is the slowdown of EstimatedTime over
	// ExhaustiveTime in percent.
	TimeDiffPct float64
	// OverheadPct is estimation cost / (estimation cost + estimated
	// run time) in percent — the paper's "overhead" column.
	OverheadPct float64
	// SearchCost is the simulated cost the exhaustive search would
	// have taken (what sampling avoids).
	SearchCost time.Duration
}

// Summary aggregates CaseRows the way the paper's Table I does.
type Summary struct {
	Workload         string
	ThresholdDiffPct float64
	TimeDiffPct      float64
	OverheadPct      float64
	Rows             int
}

// Summarize averages the rows.
func Summarize(workload string, rows []CaseRow) Summary {
	s := Summary{Workload: workload, Rows: len(rows)}
	if len(rows) == 0 {
		return s
	}
	for _, r := range rows {
		s.ThresholdDiffPct += r.ThresholdDiffPct
		s.TimeDiffPct += r.TimeDiffPct
		s.OverheadPct += r.OverheadPct
	}
	n := float64(len(rows))
	s.ThresholdDiffPct /= n
	s.TimeDiffPct /= n
	s.OverheadPct /= n
	return s
}

// renderCaseRows prints rows in the fixed-width layout shared by
// Figs. 3, 5 and 8.
func renderCaseRows(w io.Writer, title string, rows []CaseRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-17s %10s %10s %11s %11s %7s %12s %12s %12s %7s %8s\n",
		"dataset", "exhaustive", "estimated", "naivestatic", "naiveavg",
		"|Δt|%", "t_exh(time)", "t_est(time)", "naive(time)", "slow%", "ovhd%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %10.1f %10.1f %11.1f %11.1f %7.2f %12v %12v %12v %7.2f %8.2f\n",
			r.Dataset, r.Exhaustive, r.Estimated, r.NaiveStatic, r.NaiveAverage,
			r.ThresholdDiffPct, r.ExhaustiveTime.Round(time.Microsecond),
			r.EstimatedTime.Round(time.Microsecond), r.NaiveTime.Round(time.Microsecond),
			r.TimeDiffPct, r.OverheadPct)
	}
	s := Summarize("avg", rows)
	fmt.Fprintf(w, "%-17s %10s %10s %11s %11s %7.2f %12s %12s %12s %7.2f %8.2f\n",
		"average", "", "", "", "", s.ThresholdDiffPct, "", "", "", s.TimeDiffPct, s.OverheadPct)
}

// SensitivityPoint is one sample-size observation (Figs. 4, 6, 9).
type SensitivityPoint struct {
	Label string
	// SampleSize is the concrete sample dimension used.
	SampleSize int
	// EstimationTime is the simulated cost of Sample+Identify.
	EstimationTime time.Duration
	// TotalTime is EstimationTime plus the run at the resulting
	// threshold (Phase I + Phase II in the paper's wording).
	TotalTime time.Duration
	// Threshold is the estimate obtained at this sample size.
	Threshold float64
}

// SensitivitySeries is a per-dataset sweep over sample sizes.
type SensitivitySeries struct {
	Dataset string
	Points  []SensitivityPoint
}

func renderSensitivity(w io.Writer, title string, series []SensitivitySeries) {
	fmt.Fprintf(w, "%s\n", title)
	for _, s := range series {
		fmt.Fprintf(w, "  %s:\n", s.Dataset)
		fmt.Fprintf(w, "    %-10s %10s %14s %14s %10s\n",
			"size", "dimension", "estimation", "total", "threshold")
		for _, p := range s.Points {
			fmt.Fprintf(w, "    %-10s %10d %14v %14v %10.1f\n",
				p.Label, p.SampleSize, p.EstimationTime.Round(time.Microsecond),
				p.TotalTime.Round(time.Microsecond), p.Threshold)
		}
	}
}

// forEach runs fn over the items concurrently (bounded by GOMAXPROCS),
// preserving result order. The first error wins.
func forEach[T, R any](items []T, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = fn(items[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
