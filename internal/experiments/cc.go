package experiments

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetcc"
)

// Fig3Result holds the CC threshold/time comparison of Fig. 3(a)+(b).
type Fig3Result struct {
	Rows []CaseRow
}

// Fig3 reproduces the connected-components case study over the Table II
// graphs: for each graph it finds the best threshold exhaustively,
// estimates one by sampling, and evaluates both plus the NaiveStatic
// (FLOPS ratio), NaiveAverage (mean of exhaustive optima) and Naive
// (GPU-only) baselines.
func Fig3(opts Options) (*Fig3Result, error) {
	o := opts.withDefaults()
	alg := hetcc.NewAlgorithm(o.Platform)
	rows, err := forEach(o.pick(datasets.All()), func(d datasets.Dataset) (CaseRow, error) {
		g, err := d.Graph()
		if err != nil {
			return CaseRow{}, err
		}
		return ccCase(d.Name, hetcc.NewWorkload(d.Name, g, alg), alg, o)
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Rows: withNaiveAverage(rows)}, nil
}

func ccCase(name string, w *hetcc.Workload, alg *hetcc.Algorithm, o Options) (CaseRow, error) {
	return caseRow(name, w, o, study{
		fig: "fig3",
		naive: func() (time.Duration, error) {
			r, err := alg.RunGPUOnly(w.Graph())
			if err != nil {
				return 0, err
			}
			return r.Time, nil
		},
		static: o.Platform.StaticShares()[0],
	})
}

// Render writes the figure as text.
func (r *Fig3Result) Render(w io.Writer) {
	renderCaseRows(w, "Fig. 3 — CC: sampling-estimated thresholds vs exhaustive search", r.Rows)
}

// Fig4Result holds the CC sample-size sensitivity study.
type Fig4Result struct {
	Series []SensitivitySeries
}

// Fig4 reproduces the CC sensitivity study: the sample size varies
// over √n/4 … 4√n and the total time (estimation + run at the
// resulting threshold) exhibits a near-concave shape with its minimum
// around √n. The paper shows two graphs; the default set is one web
// graph and one road network.
func Fig4(opts Options) (*Fig4Result, error) {
	o := opts.withDefaults()
	alg := hetcc.NewAlgorithm(o.Platform)
	series, err := forEach(o.namesOr("web-BerkStan", "netherlands_osm"), func(name string) (SensitivitySeries, error) {
		d, err := datasets.ByName(name)
		if err != nil {
			return SensitivitySeries{}, err
		}
		g, err := d.Graph()
		if err != nil {
			return SensitivitySeries{}, err
		}
		return ccSensitivity(name, g, alg, o)
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Series: series}, nil
}

// SampleSizeLadder is the √n-relative ladder the paper sweeps in
// Figs. 4 and 9.
var SampleSizeLadder = []struct {
	Label  string
	Factor float64
}{
	{"sqrt(n)/4", 0.25},
	{"sqrt(n)/2", 0.5},
	{"sqrt(n)", 1},
	{"2*sqrt(n)", 2},
	{"4*sqrt(n)", 4},
}

func ccSensitivity(name string, g *graph.Graph, alg *hetcc.Algorithm, o Options) (SensitivitySeries, error) {
	return sensitivity("fig4", name, o, nil, sqrtLadder(g.N, func(size int) core.Sampled {
		w := hetcc.NewWorkload(name, g, alg)
		w.SampleSize = size
		return w
	}))
}

// Render writes the figure as text.
func (r *Fig4Result) Render(w io.Writer) {
	renderSensitivity(w, "Fig. 4 — CC: sample size vs estimation and total time", r.Series)
}

// MinimumNear reports whether the series' total-time minimum falls at
// the ladder entry with the given label (the paper: at √n).
func (s SensitivitySeries) MinimumNear(label string) bool {
	if len(s.Points) == 0 {
		return false
	}
	best := 0
	for i, p := range s.Points {
		if p.TotalTime < s.Points[best].TotalTime {
			best = i
		}
	}
	return s.Points[best].Label == label
}
