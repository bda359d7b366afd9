package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/datasets"
	"repro/internal/hetcc"
	"repro/internal/hetsim"
)

// PlatformRow is one (platform, dataset) outcome of the platform
// ablation.
type PlatformRow struct {
	Platform string
	Dataset  string
	// Exhaustive and Estimated CC thresholds on this platform.
	Exhaustive, Estimated float64
	// StaticShare is NaiveStatic's CPU share on this platform.
	StaticShare float64
	// Times at the exhaustive and estimated thresholds.
	ExhaustiveTime, EstimatedTime time.Duration
}

// AblationPlatformResult holds the platform-adaptation study.
type AblationPlatformResult struct {
	Rows []PlatformRow
}

// AblationPlatform demonstrates that the sampling framework adapts to
// the platform as well as to the input: the same graph has different
// optimal thresholds on different simulated hardware (entry-level GPU
// → CPU-heavy splits; HBM-class GPU → GPU-heavy splits), and the
// sampled estimate tracks each optimum without re-tuning. A static
// approach calibrated on one platform would carry its threshold to the
// wrong hardware.
func AblationPlatform(opts Options) (*AblationPlatformResult, error) {
	o := opts.withDefaults()
	res := &AblationPlatformResult{}
	for _, dn := range o.namesOr("web-BerkStan") {
		d, err := datasets.ByName(dn)
		if err != nil {
			return nil, err
		}
		g, err := d.Graph()
		if err != nil {
			return nil, err
		}
		for _, pn := range hetsim.PresetNames() {
			po := o
			if po.Platform, err = hetsim.Preset(pn); err != nil {
				return nil, err
			}
			// Fig. 3's row on this platform; the preset's name is mixed
			// into the seed so each platform draws its own samples.
			alg := hetcc.NewAlgorithm(po.Platform)
			r, err := ccCase(pn+dn, hetcc.NewWorkload(dn, g, alg), alg, po)
			if err != nil {
				return nil, fmt.Errorf("platform %s: %w", pn, err)
			}
			res.Rows = append(res.Rows, PlatformRow{
				Platform:       pn,
				Dataset:        dn,
				Exhaustive:     r.Exhaustive,
				Estimated:      r.Estimated,
				StaticShare:    r.NaiveStatic,
				ExhaustiveTime: r.ExhaustiveTime,
				EstimatedTime:  r.EstimatedTime,
			})
		}
	}
	return res, nil
}

// Render writes the ablation as text.
func (r *AblationPlatformResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation — platform adaptation (CC): the same input, different hardware")
	fmt.Fprintf(w, "%-14s %-14s %10s %10s %8s %12s %12s %8s\n",
		"platform", "dataset", "exhaustive", "estimated", "static", "t_exh", "t_est", "|Δ|")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-14s %10.1f %10.1f %8.1f %12v %12v %8.1f\n",
			row.Platform, row.Dataset, row.Exhaustive, row.Estimated, row.StaticShare,
			row.ExhaustiveTime.Round(time.Microsecond),
			row.EstimatedTime.Round(time.Microsecond),
			math.Abs(row.Estimated-row.Exhaustive))
	}
}

// Spread returns the range of exhaustive optima across platforms for
// the first dataset — nonzero spread is the ablation's point.
func (r *AblationPlatformResult) Spread() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	first := r.Rows[0].Dataset
	for _, row := range r.Rows {
		if row.Dataset != first {
			continue
		}
		lo = math.Min(lo, row.Exhaustive)
		hi = math.Max(hi, row.Exhaustive)
	}
	return hi - lo
}
