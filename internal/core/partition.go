package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Config controls EstimateThreshold.
type Config struct {
	// Searcher is the Identify strategy (default CoarseToFine{}).
	Searcher Searcher
	// Seed drives the sampling randomness.
	Seed uint64
	// Repeats re-runs the whole Sample+Identify pipeline this many
	// times with independent samples and keeps the median estimate
	// ("our method allows us the freedom to conduct multiple runs of
	// the algorithm on the sampled input"). Default 1.
	Repeats int
	// Parallelism bounds concurrent Evaluate calls (and concurrent
	// Repeats) across the pipeline. 0 defers to the context
	// (WithParallelism), which itself defaults to GOMAXPROCS; 1 forces
	// sequential execution. Results are identical at any setting —
	// parallelism changes wall-clock time only, never the estimate,
	// the per-repeat RNG streams, or the simulated cost accounting.
	Parallelism int
	// WarmStart, when non-nil, narrows every repeat's Identify window
	// around a transferred threshold (see WarmStart). The estimate
	// stays a real search — it just starts where a structurally
	// similar input already found its balance.
	WarmStart *WarmStart
}

// DefaultWarmWindow is the half-width of the warm-started Identify
// window, in threshold units of the sample's search range.
const DefaultWarmWindow = 8

// WarmStart seeds the Identify stage from a threshold transferred
// from a structurally similar input (the hetstore transfer path). The
// transferred threshold is a *full-input* threshold; each repeat maps
// it back into the sample's threshold space (via InverseExtrapolator
// when the workload implements it, identity otherwise), then sweeps
// only [seed-DefaultWarmWindow, seed+DefaultWarmWindow] intersected
// with the sample range.
// An empty intersection falls back to the full range — a bad transfer
// costs nothing but the warm window's evaluations.
type WarmStart struct {
	// Threshold is the transferred full-input threshold.
	Threshold float64
}

// InverseExtrapolator is implemented by workloads whose Extrapolate
// step is not the identity: it maps a full-input threshold back into
// the sample's threshold space, so a transferred threshold can seed a
// warm-started sample search.
type InverseExtrapolator interface {
	InverseExtrapolate(full float64) float64
}

// warmWindow narrows [lo, hi] around the warm-start seed. It returns
// the original range when the narrowed window is empty.
func warmWindow(w Sampled, ws *WarmStart, lo, hi float64) (float64, float64) {
	seed := ws.Threshold
	if inv, ok := w.(InverseExtrapolator); ok {
		seed = inv.InverseExtrapolate(seed)
	}
	nlo, nhi := seed-DefaultWarmWindow, seed+DefaultWarmWindow
	if nlo < lo {
		nlo = lo
	}
	if nhi > hi {
		nhi = hi
	}
	if nlo >= nhi {
		return lo, hi
	}
	return nlo, nhi
}

func (c Config) withDefaults() Config {
	if c.Searcher == nil {
		c.Searcher = CoarseToFine{}
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	return c
}

// Estimate is the outcome of the sampling framework on one workload.
type Estimate struct {
	// Threshold is the extrapolated threshold for the full input.
	Threshold float64
	// SampleThreshold is the best threshold found on the sample
	// (before extrapolation).
	SampleThreshold float64
	// SampleCost is the simulated cost of building the sample(s).
	SampleCost time.Duration
	// IdentifyCost is the simulated cost of all Evaluate calls on
	// the sample(s).
	IdentifyCost time.Duration
	// Evals is the number of sample evaluations performed.
	Evals int
	// Repeats is the number of independent samples used.
	Repeats int
}

// Overhead returns the total simulated estimation cost (Sample +
// Identify phases).
func (e *Estimate) Overhead() time.Duration { return e.SampleCost + e.IdentifyCost }

// EstimateThreshold runs the full Sample → Identify → Extrapolate
// pipeline of Section II and returns the estimated threshold together
// with its overhead accounting. The context bounds the whole pipeline:
// cancellation is observed between samples and between threshold
// evaluations inside the Identify search.
//
// When the context carries observability state (internal/obs), the
// pipeline records one span per stage — "sample" and "identify" per
// repeat, "extrapolate" once — under a parent "pipeline" span, so the
// serving stack's traces show where each estimate's time goes. Repeats
// run concurrently when parallelism allows; each repeat still gets its
// own sample/identify spans, started from the shared pipeline parent.
//
// Repeats are combined by their median, which Extrapolate maps to the
// full input and the workload's range clamps.
func EstimateThreshold(ctx context.Context, w Sampled, cfg Config) (*Estimate, error) {
	c := cfg.withDefaults()
	fullLo, fullHi := rangeOf(w)
	est := &Estimate{Repeats: c.Repeats}
	tot, err := runEstimate(ctx, c, pipeline[Workload, float64]{
		workload: w.Name(),
		searcher: c.Searcher.Name(),
		lo:       fullLo,
		hi:       fullHi,
		sample:   w.Sample,
		identify: func(ctx context.Context, sw Workload) (float64, int, time.Duration, error) {
			lo, hi := rangeOf(sw)
			if c.WarmStart != nil {
				lo, hi = warmWindow(w, c.WarmStart, lo, hi)
			}
			res, err := c.Searcher.Search(ctx, sw, lo, hi)
			return res.Best, res.Evals, res.Cost, err
		},
		show: func(t float64) string { return fmt.Sprintf("%.3f", t) },
		extrapolate: func(span *obs.Span, bests []float64) error {
			est.SampleThreshold = median(bests)
			est.Threshold = w.Extrapolate(est.SampleThreshold)
			if est.Threshold < fullLo {
				est.Threshold = fullLo
			}
			if est.Threshold > fullHi {
				est.Threshold = fullHi
			}
			span.SetAttr("sample_threshold", fmt.Sprintf("%.3f", est.SampleThreshold))
			span.SetAttr("threshold", fmt.Sprintf("%.3f", est.Threshold))
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	est.SampleCost, est.IdentifyCost, est.Evals = tot.sampleCost, tot.identifyCost, tot.evals
	return est, nil
}

// rangeOf returns a workload's threshold range: its own if it
// implements Ranger, otherwise the percentage range [0, 100].
func rangeOf(w Workload) (lo, hi float64) {
	if rg, ok := w.(Ranger); ok {
		return rg.ThresholdRange()
	}
	return 0, 100
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ExhaustiveBest runs the gold-standard exhaustive search on the full
// input with unit stride: the paper's "best possible threshold". The
// returned SearchResult's Cost is the (large) simulated time such a
// search would take — the cost the sampling framework avoids. A
// workload implementing Ranger is searched over its own range.
func ExhaustiveBest(ctx context.Context, w Workload, cfg Config) (SearchResult, error) {
	c := cfg.withDefaults()
	if c.Parallelism > 0 {
		ctx = WithParallelism(ctx, c.Parallelism)
	}
	lo, hi := rangeOf(w)
	return Exhaustive{Step: 1}.Search(ctx, w, lo, hi)
}

// Baseline names used in reports.
const (
	BaselineNaiveStatic  = "NaiveStatic"
	BaselineNaiveAverage = "NaiveAverage"
	BaselineGPUOnly      = "Naive"
)

// NaiveAverage returns the NaiveAverage baseline threshold: the mean
// of the per-dataset exhaustive optima ("the thresholds arrived at for
// all the datasets under consideration are then averaged and treated
// as the threshold percentage for all of the input graphs").
func NaiveAverage(exhaustiveBests []float64) float64 {
	if len(exhaustiveBests) == 0 {
		return 0
	}
	var s float64
	for _, t := range exhaustiveBests {
		s += t
	}
	return s / float64(len(exhaustiveBests))
}
