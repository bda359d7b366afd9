package hetspmm

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// MaxDevices bounds the device count of a multi-device SpMM run. The
// evaluation hot path keeps its row cuts in a fixed-size stack array
// so that a partition evaluation, like the scalar one, allocates
// nothing.
const MaxDevices = 16

// MultiWorkload adapts multi-device SpMM (computing A×A) to the
// partition framework.
type MultiWorkload struct {
	name string
	alg  *Algorithm
	prof *Profile
	// SampleDivisor is K; the sample is n/K × n/K. 0 means 4.
	SampleDivisor int
}

var (
	_ core.SampledPartition       = (*MultiWorkload)(nil)
	_ core.PartitionRaceEstimator = (*MultiWorkload)(nil)
)

// NewMultiWorkload profiles A×A and wraps it for partition-vector
// estimation on alg's platform.
func NewMultiWorkload(name string, a *sparse.CSR, alg *Algorithm) (*MultiWorkload, error) {
	prof, err := profileSquare(name, a, alg)
	if err != nil {
		return nil, err
	}
	return &MultiWorkload{name: name, alg: alg, prof: prof}, nil
}

// Name implements core.PartitionWorkload.
func (w *MultiWorkload) Name() string { return "spmm-multi/" + w.name }

// Devices implements core.PartitionWorkload.
func (w *MultiWorkload) Devices() int { return w.alg.Platform.Devices() }

// Profile returns the cached prefix profile.
func (w *MultiWorkload) Profile() *Profile { return w.prof }

// EvaluatePartition implements core.PartitionWorkload via the prefix
// profile; like the scalar Evaluate it is allocation-free and safe
// for concurrent use.
func (w *MultiWorkload) EvaluatePartition(p core.Partition) (time.Duration, error) {
	return w.alg.SimTimeMulti(w.prof, p)
}

// SamplePartition implements core.SampledPartition with the same
// uniform-submatrix sampler as the scalar workload; the miniature is
// shipped to every accelerator once and stays resident for the whole
// Identify search.
func (w *MultiWorkload) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.spmm-multi")
	defer span.Finish()
	p := w.alg.Platform
	sub, cost, err := drawSample(span, r, w.prof.a, p.CPU, p.Link, int64(p.Devices()-1), w.name, w.SampleDivisor)
	if err != nil {
		span.RecordError(err)
		return nil, 0, err
	}
	inner, err := NewMultiWorkload(w.name+"-sample", sub, w.alg)
	if err != nil {
		return nil, 0, err
	}
	inner.prof.Resident = true
	return inner, cost, nil
}

// ExtrapolatePartition implements core.SampledPartition: identity, as
// in the scalar unstructured-SpMM case.
func (w *MultiWorkload) ExtrapolatePartition(p core.Partition) core.Partition { return p }

// EstimatePartitionByRace implements core.PartitionRaceEstimator, the
// N-device generalization of the paper's coarse race: every device
// processes the whole product independently and the observed rates
// (inverse times) become the coarse shares; the race stops when the
// fastest device finishes.
func (w *MultiWorkload) EstimatePartitionByRace() (core.Partition, time.Duration, error) {
	n := w.Devices()
	times := make([]time.Duration, n)
	w.alg.deviceTimes(w.prof, times)
	shares := make(core.Partition, n)
	var (
		total float64
		race  time.Duration
	)
	for i, t := range times {
		if t <= 0 {
			// Degenerate (empty) product: fall back to the equal split.
			return core.EqualPartition(n), 0, nil
		}
		if i == 0 || t < race {
			race = t
		}
		shares[i] = 1 / t.Seconds()
		total += shares[i]
	}
	var sum float64
	for i := 0; i < n-1; i++ {
		shares[i] = 100 * shares[i] / total
		sum += shares[i]
	}
	shares[n-1] = 100 - sum
	return shares, race, nil
}
