package hetscale

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Workload adapts HH-CPU to the core partitioning framework. The
// threshold is a row-density count in [0, MaxDegree]; the workload
// implements core.Ranger to expose that range to searches.
type Workload struct {
	name string
	alg  *Algorithm
	prof *Profile
	// SampleRows is the number of rows in the miniature; 0 means the
	// paper's √n.
	SampleRows int
}

// degreeExponent is the degree-thinning exponent used when sampling
// (see sparse.ScaleFreeSampleConfig); 0.5 pairs with the paper's
// extrapolation t_A = t_s².
const degreeExponent = 0.5

var (
	_ core.Sampled             = (*Workload)(nil)
	_ core.Ranger              = (*Workload)(nil)
	_ core.InverseExtrapolator = (*Workload)(nil)
)

// NewWorkload profiles A×A and wraps it for density-threshold
// estimation.
func NewWorkload(name string, a *sparse.CSR, alg *Algorithm) (*Workload, error) {
	prof, err := NewProfile(a)
	if err != nil {
		return nil, fmt.Errorf("hetscale: profiling %s: %w", name, err)
	}
	return &Workload{name: name, alg: alg, prof: prof}, nil
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "hhcpu/" + w.name }

// Matrix returns the underlying input A.
func (w *Workload) Matrix() *sparse.CSR { return w.prof.a }

// Profile returns the cached density profile.
func (w *Workload) Profile() *Profile { return w.prof }

// ThresholdRange implements core.Ranger: density thresholds live in
// [0, maxRowNNZ].
func (w *Workload) ThresholdRange() (lo, hi float64) {
	return 0, float64(w.prof.MaxDegree())
}

// Evaluate implements core.Workload via the density profile. It is
// safe for concurrent use: SimTime only reads the profile's ordered
// prefix quantities, which are built once in NewProfile and never
// mutated afterwards.
func (w *Workload) Evaluate(t float64) (time.Duration, error) {
	return w.alg.SimTime(w.prof, t)
}

// Sample implements core.Sampled with the paper's Section V sampler:
// √n rows drawn uniformly, each thinned to ≈ √d entries with
// column indices transformed into the sample's index space.
func (w *Workload) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.scalefree")
	defer span.Finish()
	span.SetAttr("rows", strconv.Itoa(w.prof.a.Rows))
	sub, err := sparse.ScaleFreeRowSample(r, w.prof.a, sparse.ScaleFreeSampleConfig{
		SampleRows:     w.SampleRows,
		DegreeExponent: degreeExponent,
	})
	if err != nil {
		err = fmt.Errorf("hetscale: sampling %s: %w", w.name, err)
		span.RecordError(err)
		return nil, 0, err
	}
	span.SetAttr("sample_rows", strconv.Itoa(sub.Rows))
	span.SetAttr("sample_nnz", strconv.Itoa(sub.NNZ()))
	inner, err := NewWorkload(w.name+"-sample", sub, w.alg)
	if err != nil {
		return nil, 0, err
	}
	inner.prof.Resident = true
	// Cost: scan the sampled rows of A to build A' and ship it to the
	// GPU once for the Identify runs.
	cost := w.alg.Platform.CPU.Time(hetsim.Kernel{
		Name:             "hh-sample",
		Ops:              int64(sub.NNZ()) + int64(w.prof.a.Rows),
		Bytes:            bytesPerNNZ * int64(sub.NNZ()),
		Launches:         1,
		ParallelFraction: 0.5,
	})
	cost += w.alg.Platform.Link.Transfer(2 * bytesPerNNZ * int64(sub.NNZ()))
	return inner, cost, nil
}

// Extrapolate implements core.Sampled with the paper's offline best
// fit: "We find that t_A = t_s × t_s and therefore use t_A as the
// threshold in Algorithm 3." The general rule for a thinning exponent
// e is t_A = t_s^(1/e); e = 1/2 gives the square.
//
// Because sample densities are integers, every full-input threshold in
// [t_s^(1/e), (t_s+1)^(1/e)) collapses onto the same observed sample
// step t_s; the unbiased inverse therefore maps t_s to the midpoint of
// that preimage interval rather than to its left edge.
func (w *Workload) Extrapolate(tSample float64) float64 {
	if tSample < 0 {
		return 0
	}
	inv := 1 / degreeExponent
	lo := math.Pow(tSample, inv)
	hi := math.Pow(tSample+1, inv)
	return (lo + hi) / 2
}

// InverseExtrapolate implements core.InverseExtrapolator: it maps a
// full-input density threshold back into the sample's threshold space
// (t_s = t_A^e, the inverse of the t_A = t_s^(1/e) rule above), so a
// threshold transferred from a structurally similar input can seed a
// warm-started sample search.
func (w *Workload) InverseExtrapolate(full float64) float64 {
	if full <= 0 {
		return 0
	}
	return math.Pow(full, degreeExponent)
}

// FitExtrapolation reproduces the paper's offline study that discovers
// the extrapolation rule: for each training workload it finds the best
// sample threshold t_s and the best full-input threshold t_A by
// exhaustive search, then fits t_A = c·t_s^p by least squares in
// log-log space. With the √-degree sampler the fit recovers p ≈ 2.
func FitExtrapolation(ws []*Workload, seed uint64) (c, p float64, err error) {
	if len(ws) < 2 {
		return 0, 0, fmt.Errorf("hetscale: need at least 2 training workloads, got %d", len(ws))
	}
	ts := make([]float64, 0, len(ws))
	ta := make([]float64, 0, len(ws))
	r := xrand.New(seed)
	for _, w := range ws {
		full, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
		if err != nil {
			return 0, 0, err
		}
		sw, _, err := w.Sample(context.Background(), r.Split())
		if err != nil {
			return 0, 0, err
		}
		sample, err := core.ExhaustiveBest(context.Background(), sw, core.Config{})
		if err != nil {
			return 0, 0, err
		}
		if full.Best <= 0 || sample.Best <= 0 {
			continue // log-log fit needs positive thresholds
		}
		ta = append(ta, full.Best)
		ts = append(ts, sample.Best)
	}
	if len(ts) < 2 {
		return 0, 0, fmt.Errorf("hetscale: too few positive training points")
	}
	// Fit the exponent with c fixed to 1 — the form the paper reports
	// ("We find that t_A = t_s × t_s"). A two-parameter power fit on a
	// handful of noisy training points lets the constant absorb the
	// exponent; the paper's offline study constrains the relation to a
	// pure power.
	var num, den float64
	for i := range ts {
		if ts[i] <= 1 {
			continue // ln 1 = 0 carries no exponent information
		}
		lx, ly := math.Log(ts[i]), math.Log(ta[i])
		num += lx * ly
		den += lx * lx
	}
	if den == 0 {
		return 0, 0, fmt.Errorf("hetscale: degenerate training set (all t_s <= 1)")
	}
	return 1, num / den, nil
}
