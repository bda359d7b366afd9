package hetcc

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

// MultiAlgorithm is the paper's Section II extension of Algorithm 1 to
// platforms with more than two devices: the vertex set is split into
// one contiguous range per device by a *vector* of share percentages,
// each device finds the components of its subgraph concurrently, and
// all cross edges merge the labelings.
type MultiAlgorithm struct {
	Platform   *hetsim.MultiPlatform
	CPUThreads int
}

// NewMultiAlgorithm returns a MultiAlgorithm on the given platform.
func NewMultiAlgorithm(p *hetsim.MultiPlatform) *MultiAlgorithm {
	return &MultiAlgorithm{Platform: p, CPUThreads: p.CPU.Spec.Cores}
}

func (a *MultiAlgorithm) threads() int {
	if a.CPUThreads > 0 {
		return a.CPUThreads
	}
	return a.Platform.CPU.Spec.Cores
}

// MultiResult is the outcome of one multi-device CC run.
type MultiResult struct {
	Labels     []int32
	Components int
	// Time is the simulated wall-clock duration.
	Time time.Duration
	// DeviceTimes[0] is the CPU's phase duration; DeviceTimes[i] is
	// accelerator i-1's (including its input transfer).
	DeviceTimes []time.Duration
	// CrossEdges spans all part boundaries.
	CrossEdges int64
	Trace      hetsim.Trace
}

// checkPartition validates a caller-supplied share vector against the
// platform: it must be a valid core.Partition (non-negative shares
// summing to 100 — malformed vectors are rejected with a structured
// *core.PartitionError, never silently renormalized) with exactly one
// share per device.
func (a *MultiAlgorithm) checkPartition(p core.Partition) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(p) != a.Platform.Devices() {
		return &core.PartitionError{
			Shares: p.Clone(), Index: -1, Sum: p.Sum(),
			Reason: fmt.Sprintf("has %d shares, platform has %d devices", len(p), a.Platform.Devices()),
		}
	}
	return nil
}

// Run executes multi-device CC with the given partition: share i of p
// is the percentage of vertices assigned to platform device i (device
// 0 is the CPU). Each call uses its own working memory, so the
// returned MultiResult is independently owned.
func (a *MultiAlgorithm) Run(g *graph.Graph, p core.Partition) (*MultiResult, error) {
	res := &MultiResult{}
	if err := a.runInto(g, p, res, new(splitScratch)); err != nil {
		return nil, err
	}
	return res, nil
}

// runInto executes multi-device CC on the shared runner, drawing every
// buffer from s; res is fully overwritten and aliases s afterwards.
func (a *MultiAlgorithm) runInto(g *graph.Graph, p core.Partition, res *MultiResult, s *splitScratch) error {
	if g == nil {
		return fmt.Errorf("hetcc: nil graph")
	}
	if err := a.checkPartition(p); err != nil {
		return err
	}
	// Cut points in vertex space: device i owns [cuts[i], cuts[i+1]).
	s.cuts = append(s.cuts[:0], 0)
	acc := 0.0
	for _, share := range p[:len(p)-1] {
		acc += share
		s.cuts = append(s.cuts, min(int(float64(g.N)*acc/100), g.N))
	}
	s.cuts = append(s.cuts, g.N)
	d := ccDevices{
		cpu:     a.Platform.CPU,
		threads: a.threads(),
		accs:    a.Platform.GPUs,
		names:   accelNames(len(a.Platform.GPUs)),
		link:    a.Platform.Link,
	}
	res.Labels, res.Components, res.Time = s.run(g, d)
	res.Trace.Entries = s.trace
	res.DeviceTimes = s.deviceTimes
	res.CrossEdges = int64(len(s.cross))
	return nil
}

// MultiWorkload adapts multi-device CC to the partition framework
// (core.SampledPartition).
type MultiWorkload struct {
	name string
	g    *graph.Graph
	alg  *MultiAlgorithm
	// SampleSize as in Workload; 0 means √n.
	SampleSize int
	// KeepFrac as in Workload; 0 means 1/2.
	KeepFrac float64
}

var _ core.SampledPartition = (*MultiWorkload)(nil)

// NewMultiWorkload wraps g for partition-vector estimation.
func NewMultiWorkload(name string, g *graph.Graph, alg *MultiAlgorithm) *MultiWorkload {
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
	s := scratchPool.Get().(*splitScratch)
	defer scratchPool.Put(s)
	var res MultiResult
	if err := w.alg.runInto(w.g, p, &res, s); err != nil {
		return 0, err
	}
	return res.Time, nil
}

// SamplePartition implements core.SampledPartition using the same
// contracted sampler as the two-device workload.
func (w *MultiWorkload) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	k := w.SampleSize
	if k <= 0 {
		k = DefaultSampleSize(w.g.N)
	}
	keep := w.KeepFrac
	if keep == 0 {
		keep = 0.5
	}
	sub, ids, err := w.g.ContractedSample(r, k, keep)
	if err != nil {
		return nil, 0, fmt.Errorf("hetcc: sampling %s: %w", w.name, err)
	}
	var scanned int64
	for _, v := range ids {
		scanned += int64(w.g.Degree(v))
	}
	cost := w.alg.Platform.CPU.Time(hetsim.Kernel{
		Name:             "cc-sample",
		Ops:              scanned + int64(k),
		Bytes:            4 * (scanned + int64(k)),
		Launches:         1,
		ParallelFraction: 0.5,
		IrregularityCV:   1.0,
	})
	inner := &MultiWorkload{name: w.name + "-sample", g: sub, alg: w.alg}
	return inner, cost, nil
}

// ExtrapolatePartition implements core.SampledPartition (identity, as
// in the scalar CC case).
func (w *MultiWorkload) ExtrapolatePartition(p core.Partition) core.Partition { return p }
