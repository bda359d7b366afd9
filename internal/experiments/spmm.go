package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetspmm"
	"repro/internal/sparse"
)

// spmmSearcher is the paper's Identify strategy for SpMM: a race-based
// coarse estimate refined by a ±5 fine sweep.
func spmmSearcher() core.Searcher { return core.RaceThenFine{Window: 4} }

// Fig5Result holds the SpMM split comparison of Fig. 5(a)+(b).
type Fig5Result struct {
	Rows []CaseRow
}

// Fig5 reproduces the unstructured-SpMM case study over the Table II
// matrices (A×A), comparing the sampling-estimated split percentage
// against the exhaustive optimum, NaiveStatic, and NaiveAverage.
func Fig5(opts Options) (*Fig5Result, error) {
	o := opts.withDefaults()
	alg := hetspmm.NewAlgorithm(o.Platform)
	rows, err := forEach(o.pick(datasets.All()), func(d datasets.Dataset) (CaseRow, error) {
		m, err := d.Matrix()
		if err != nil {
			return CaseRow{}, err
		}
		w, err := hetspmm.NewWorkload(d.Name, m, alg)
		if err != nil {
			return CaseRow{}, err
		}
		return spmmCase(d.Name, w, o)
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Rows: withNaiveAverage(rows)}, nil
}

func spmmCase(name string, w *hetspmm.Workload, o Options) (CaseRow, error) {
	return caseRow(name, w, o, study{
		fig:      "fig5",
		searcher: spmmSearcher(),
		naive:    func() (time.Duration, error) { return w.Evaluate(0) },
		static:   o.Platform.StaticShares()[0],
	})
}

// Render writes the figure as text.
func (r *Fig5Result) Render(w io.Writer) {
	renderCaseRows(w, "Fig. 5 — SpMM: sampling-estimated split % vs exhaustive search", r.Rows)
}

// Fig6Result holds the SpMM sample-size sensitivity study.
type Fig6Result struct {
	Series []SensitivitySeries
}

// Fig6 reproduces the SpMM sensitivity study: the sample dimension
// varies from n/10 to 4n/10 and the total time is near-concave with a
// workable minimum around n/4 (the paper's chosen K).
func Fig6(opts Options) (*Fig6Result, error) {
	o := opts.withDefaults()
	alg := hetspmm.NewAlgorithm(o.Platform)
	series, err := forEach(o.namesOr("cant", "web-BerkStan"), func(name string) (SensitivitySeries, error) {
		d, err := datasets.ByName(name)
		if err != nil {
			return SensitivitySeries{}, err
		}
		m, err := d.Matrix()
		if err != nil {
			return SensitivitySeries{}, err
		}
		return spmmSensitivity(name, m, alg, o)
	})
	if err != nil {
		return nil, err
	}
	return &Fig6Result{Series: series}, nil
}

func spmmSensitivity(name string, m *sparse.CSR, alg *hetspmm.Algorithm, o Options) (SensitivitySeries, error) {
	full, err := hetspmm.NewWorkload(name, m, alg)
	if err != nil {
		return SensitivitySeries{}, err
	}
	// The paper's Fig. 6 ladder: sample dimensions n/10 … 4n/10,
	// expressed through the divisor interface.
	var ladder []rung
	for _, step := range []struct {
		label    string
		num, den int
	}{{"n/10", 1, 10}, {"n/5", 1, 5}, {"n/4", 1, 4}, {"3n/10", 3, 10}, {"4n/10", 4, 10}} {
		size := max(1, step.num*m.Rows/step.den)
		w := *full
		w.SampleDivisor = max(1, m.Rows/size)
		ladder = append(ladder, rung{step.label, size, &w})
	}
	return sensitivity("fig6", name, o, spmmSearcher(), ladder)
}

// Render writes the figure as text.
func (r *Fig6Result) Render(w io.Writer) {
	renderSensitivity(w, "Fig. 6 — SpMM: sample size vs estimation and total time", r.Series)
}

// Fig7Row compares one sampling strategy's estimate on one matrix.
type Fig7Row struct {
	Dataset  string
	Strategy string // "random" or "block k"
	// Estimated is the split percentage obtained from this sample.
	Estimated float64
	// Exhaustive is the true optimum of the full input.
	Exhaustive float64
	// TimeAtEstimate is the full-input duration using Estimated.
	TimeAtEstimate time.Duration
}

// Fig7Result holds the role-of-randomness study.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7 reproduces the role-of-randomness experiment: the SpMM split is
// estimated from four predetermined n/4 × n/4 blocks of A and from a
// random sample; predetermined samples inherit local structure and
// give biased estimates ("predetermined samples tend to be inaccurate
// in estimating the work partition threshold").
func Fig7(opts Options) (*Fig7Result, error) {
	o := opts.withDefaults()
	alg := hetspmm.NewAlgorithm(o.Platform)
	res := &Fig7Result{}
	// The paper shows cant and cop20k; web-BerkStan is added because
	// its clustered hub rows make the predetermined-block bias vivid.
	for _, name := range o.namesOr("cant", "cop20k_A", "web-BerkStan") {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := d.Matrix()
		if err != nil {
			return nil, err
		}
		w, err := hetspmm.NewWorkload(name, m, alg)
		if err != nil {
			return nil, err
		}
		best, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: o.Parallelism})
		if err != nil {
			return nil, err
		}
		add := func(strategy string, estimate float64, t time.Duration) {
			res.Rows = append(res.Rows, Fig7Row{
				Dataset: name, Strategy: strategy,
				Estimated: estimate, Exhaustive: best.Best,
				TimeAtEstimate: t,
			})
		}
		// Random sample estimate (the framework's default).
		est, t, err := estimateAndRun(w, spmmSearcher(), o.Seed^hashName(name), o)
		if err != nil {
			return nil, err
		}
		add("random", est.Threshold, t)
		// Four predetermined blocks: the corners of A.
		size := max(1, m.Rows/4)
		half := m.Rows / 2
		for k, off := range [][2]int{{0, 0}, {0, half}, {half, 0}, {half, half}} {
			block, err := sparse.BlockSubmatrix(m, off[0], off[1], size)
			if err != nil {
				return nil, err
			}
			bw, err := hetspmm.NewWorkload(fmt.Sprintf("%s-block%d", name, k), block, alg)
			if err != nil {
				return nil, err
			}
			sr, err := spmmSearcher().Search(context.Background(), bw, 0, 100)
			if err != nil {
				return nil, err
			}
			t, err := w.Evaluate(sr.Best)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("block %d", k+1), sr.Best, t)
		}
	}
	return res, nil
}

// Render writes the figure as text.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 7 — role of randomness: random vs predetermined samples (SpMM)")
	fmt.Fprintf(w, "%-12s %-10s %10s %10s %8s %14s\n",
		"dataset", "strategy", "estimated", "exhaustive", "|Δ|", "time@estimate")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-10s %10.1f %10.1f %8.1f %14v\n",
			row.Dataset, row.Strategy, row.Estimated, row.Exhaustive,
			math.Abs(row.Estimated-row.Exhaustive), row.TimeAtEstimate.Round(time.Microsecond))
	}
}
