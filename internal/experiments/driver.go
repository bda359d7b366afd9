package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// The paper evaluates every case study with one procedure: find the
// exhaustive optimum, take the sampled estimate, and compare both
// against the NaiveStatic, NaiveAverage and GPU-only Naive baselines
// (Figs. 3, 5, 8), or sweep the sample size and report estimation and
// total time (Figs. 4, 6, 9). This file is that procedure, written once.

// estimateAndRun runs the sampling pipeline on w with the given
// Identify strategy (nil means core's default) and seed, then runs w
// at the estimate. Evaluate ignores the sampler settings, so the
// returned time is that of the full input.
func estimateAndRun(w core.Sampled, searcher core.Searcher, seed uint64, o Options) (*core.Estimate, time.Duration, error) {
	est, err := core.EstimateThreshold(context.Background(), w, core.Config{
		Searcher:    searcher,
		Seed:        seed,
		Repeats:     o.Repeats,
		Parallelism: o.Parallelism,
	})
	if err != nil {
		return nil, 0, err
	}
	t, err := w.Evaluate(est.Threshold)
	return est, t, err
}

// study is what differs between the three case studies.
type study struct {
	fig      string        // figure tag for error messages
	searcher core.Searcher // Identify strategy; nil means core's default
	// naive runs the homogeneous GPU-only baseline.
	naive func() (time.Duration, error)
	// static is the NaiveStatic threshold: the FLOPS-ratio CPU share.
	static float64
	// span normalizes |Δt| to percent of a threshold range that is not
	// a percentage; 0 leaves it in threshold units, which for the
	// [0, 100] workloads are already percentage points.
	span float64
}

// caseRow evaluates one input of a case study. NaiveAverage needs every
// row's optimum and is filled in by withNaiveAverage.
func caseRow(name string, w core.Sampled, o Options, s study) (CaseRow, error) {
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: o.Parallelism})
	if err != nil {
		return CaseRow{}, fmt.Errorf("%s %s exhaustive: %w", s.fig, name, err)
	}
	est, estTime, err := estimateAndRun(w, s.searcher, o.Seed^hashName(name), o)
	if err != nil {
		return CaseRow{}, fmt.Errorf("%s %s estimate: %w", s.fig, name, err)
	}
	naive, err := s.naive()
	if err != nil {
		return CaseRow{}, fmt.Errorf("%s %s naive: %w", s.fig, name, err)
	}
	diff := math.Abs(est.Threshold - best.Best)
	if s.span > 0 {
		diff = 100 * diff / s.span
	}
	return CaseRow{
		Dataset:          name,
		Exhaustive:       best.Best,
		Estimated:        est.Threshold,
		NaiveStatic:      s.static,
		ThresholdDiffPct: diff,
		ExhaustiveTime:   best.BestTime,
		EstimatedTime:    estTime,
		NaiveTime:        naive,
		TimeDiffPct:      100 * (float64(estTime)/float64(best.BestTime) - 1),
		OverheadPct:      100 * float64(est.Overhead()) / float64(est.Overhead()+estTime),
		SearchCost:       best.Cost,
	}, nil
}

// withNaiveAverage sets every row's NaiveAverage, the mean of all the
// rows' exhaustive optima. Its time column would coincide with a plain
// run at that threshold and is not plotted in the paper.
func withNaiveAverage(rows []CaseRow) []CaseRow {
	bests := make([]float64, len(rows))
	for i, r := range rows {
		bests[i] = r.Exhaustive
	}
	avg := core.NaiveAverage(bests)
	for i := range rows {
		rows[i].NaiveAverage = avg
	}
	return rows
}

// rung is one sample size of a sensitivity sweep: its ladder label,
// the concrete sample dimension, and the workload set to sample at it.
type rung struct {
	label string
	size  int
	w     core.Sampled
}

// sqrtLadder builds the rungs of SampleSizeLadder (Figs. 4 and 9) for
// an input of n vertices or rows; at returns the workload that samples
// size of them.
func sqrtLadder(n int, at func(size int) core.Sampled) []rung {
	root := math.Sqrt(float64(n))
	ladder := make([]rung, len(SampleSizeLadder))
	for i, step := range SampleSizeLadder {
		size := max(2, int(step.Factor*root))
		ladder[i] = rung{step.Label, size, at(size)}
	}
	return ladder
}

// sensitivity estimates at every rung of the ladder and records the
// estimation cost and the total (estimation + run) time.
func sensitivity(fig, name string, o Options, searcher core.Searcher, ladder []rung) (SensitivitySeries, error) {
	s := SensitivitySeries{Dataset: name}
	for _, r := range ladder {
		est, runTime, err := estimateAndRun(r.w, searcher, o.Seed^hashName(name)^uint64(r.size), o)
		if err != nil {
			return s, fmt.Errorf("%s %s size %d: %w", fig, name, r.size, err)
		}
		s.Points = append(s.Points, SensitivityPoint{
			Label:          r.label,
			SampleSize:     r.size,
			EstimationTime: est.Overhead(),
			TotalTime:      est.Overhead() + runTime,
			Threshold:      est.Threshold,
		})
	}
	return s, nil
}

// hashName mixes a dataset name into the seed so each dataset draws an
// independent sample stream.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
