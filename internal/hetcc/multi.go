package hetcc

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// MultiWorkload adapts multi-device CC to the partition framework
// (core.SampledPartition).
type MultiWorkload struct {
	name string
	g    *graph.Graph
	alg  *Algorithm
	// SampleSize as in Workload; 0 means √n.
	SampleSize int
	// KeepFrac as in Workload; 0 means 1/2.
	KeepFrac float64
}

var _ core.SampledPartition = (*MultiWorkload)(nil)

// NewMultiWorkload wraps g for partition-vector estimation.
func NewMultiWorkload(name string, g *graph.Graph, alg *Algorithm) *MultiWorkload {
	return &MultiWorkload{name: name, g: g, alg: alg}
}

// Name implements core.PartitionWorkload.
func (w *MultiWorkload) Name() string { return "cc-multi/" + w.name }

// Devices implements core.PartitionWorkload.
func (w *MultiWorkload) Devices() int { return w.alg.Platform.Devices() }

// EvaluatePartition implements core.PartitionWorkload.
// Like Workload.Evaluate it is safe for concurrent use and runs out of
// the same pool of run scratch, allocation-free in the steady state.
func (w *MultiWorkload) EvaluatePartition(p core.Partition) (time.Duration, error) {
	return w.alg.evaluate(w.g, p)
}

// SamplePartition implements core.SampledPartition using the same
// contracted sampler as the two-device workload.
func (w *MultiWorkload) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	sub, cost, err := drawSample(nil, r, w.g, w.alg.Platform.CPU, w.name, w.SampleSize, keepOrDefault(w.KeepFrac), false, false)
	if err != nil {
		return nil, 0, err
	}
	return &MultiWorkload{name: w.name + "-sample", g: sub, alg: w.alg}, cost, nil
}

// ExtrapolatePartition implements core.SampledPartition (identity, as
// in the scalar CC case).
func (w *MultiWorkload) ExtrapolatePartition(p core.Partition) core.Partition { return p }
