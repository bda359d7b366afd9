package hetcc

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// Workload adapts heterogeneous CC to the core partitioning framework
// at any device count. It implements core.SampledPartition: share i of
// a partition is the percentage of vertices device i processes. It
// also implements core.Sampled, whose threshold t — the percentage of
// vertices processed on the CPU — is the two-device partition
// {t, 100 - t}; on more devices every Evaluate fails with a
// *core.PartitionError.
type Workload struct {
	name string
	g    *graph.Graph
	alg  *Algorithm
	// SampleSize is the number of vertices in the sampled graph;
	// 0 means the paper's √n.
	SampleSize int
	// Induced selects the plain induced-subgraph sampler G[S]
	// instead of the default contracted sampler; used by the sampler
	// ablation (an induced √n sample of a sparse graph is nearly
	// empty and carries no partitioning signal).
	Induced bool
	// Importance biases the contracted sampler's vertex selection by
	// degree (size-biased sampling), the importance-sampling variant
	// the paper defers to future work. It concentrates the sample on
	// the vertices that carry the work volume, at the cost of
	// overrepresenting hubs in per-vertex statistics.
	Importance bool
}

// keepFrac is the contracted sampler's edge-thinning fraction.
const keepFrac = 0.5

var (
	_ core.Sampled          = (*Workload)(nil)
	_ core.SampledPartition = (*Workload)(nil)
)

// NewWorkload wraps graph g for partition estimation on alg's platform;
// a CPU+GPU Algorithm (NewAlgorithm) gives the paper's threshold.
func NewWorkload(name string, g *graph.Graph, alg *Algorithm) *Workload {
	return &Workload{name: name, g: g, alg: alg}
}

// NewMultiWorkload is NewWorkload, named for an N-device Algorithm
// (NewMultiAlgorithm): one Workload serves every device count.
func NewMultiWorkload(name string, g *graph.Graph, alg *Algorithm) *Workload {
	return NewWorkload(name, g, alg)
}

// Name implements core.Workload and core.PartitionWorkload.
func (w *Workload) Name() string { return "cc/" + w.name }

// Graph returns the underlying input.
func (w *Workload) Graph() *graph.Graph { return w.g }

// Devices implements core.PartitionWorkload.
func (w *Workload) Devices() int { return w.alg.Platform.Devices() }

// EvaluatePartition implements core.PartitionWorkload: one
// heterogeneous CC run at partition p, returning its simulated
// duration. The run is time-only: the clock reads the kernels' work
// counters, not the component labels, so it skips the CPU prefix DFS,
// the label copies and the cross-edge merge, and returns Run's Time
// exactly. It is safe for concurrent use — the graph is treated as
// immutable and each call checks a private run scratch (split indexes,
// frontiers, labels, union-find state) out of a shared pool — so
// parallel searches (core.WithParallelism) may call it from many
// goroutines on one Workload. Reusing pooled scratch across grid
// points is what makes the evaluation loop allocation-free in the
// steady state.
func (w *Workload) EvaluatePartition(p core.Partition) (time.Duration, error) {
	return w.alg.evaluate(w.g, p)
}

// Evaluate implements core.Workload: EvaluatePartition at the
// two-device partition {t, 100 - t}.
func (w *Workload) Evaluate(t float64) (time.Duration, error) {
	return w.EvaluatePartition(core.Partition{t, 100 - t})
}

// SamplePartition implements core.SampledPartition: G' is the
// contracted sample over a uniform random vertex set S of √n vertices
// (Section III-A.1; see graph.ContractedSample for why the contraction
// rather than the plain induced subgraph is used as the miniature).
// The returned cost charges the CPU for drawing S and extracting the
// sample (a scan of the chosen vertices' adjacency lists with
// binary-search remapping). Set Induced to use the plain induced
// subgraph instead (the ablation of the sampler choice).
func (w *Workload) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.cc")
	defer span.Finish()
	g, k := w.g, w.SampleSize
	if k <= 0 {
		k = DefaultSampleSize(g.N)
	}
	span.SetAttr("vertices", strconv.Itoa(g.N))
	span.SetAttr("sample_vertices", strconv.Itoa(k))
	var sub *graph.Graph
	var ids []int
	var err error
	switch {
	case w.Induced:
		sub, ids, err = g.InducedSubgraph(g.SampleVertices(r, k))
	case w.Importance:
		sub, ids, err = g.ContractedSampleFrom(r, g.ImportanceSampleVertices(r, k), keepFrac)
	default:
		sub, ids, err = g.ContractedSample(r, k, keepFrac)
	}
	if err != nil {
		err = fmt.Errorf("hetcc: sampling %s: %w", w.name, err)
		span.RecordError(err)
		return nil, 0, err
	}
	span.SetAttr("sample_edges", strconv.Itoa(sub.M()))
	var scanned int64
	for _, v := range ids {
		scanned += int64(g.Degree(v))
	}
	cost := w.alg.Platform.CPU.Time(hetsim.Kernel{
		Name:             "cc-sample",
		Ops:              scanned + int64(k),
		Bytes:            4 * (scanned + int64(k)),
		Launches:         1,
		ParallelFraction: 0.5,
		IrregularityCV:   1.0, // hash-probe heavy
	})
	return &Workload{name: w.name + "-sample", g: sub, alg: w.alg}, cost, nil
}

// Sample implements core.Sampled: the sampled Workload of
// SamplePartition.
func (w *Workload) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	sw, cost, err := w.SamplePartition(ctx, r)
	if err != nil {
		return nil, 0, err
	}
	return sw.(*Workload), cost, nil
}

// ExtrapolatePartition implements core.SampledPartition. For CC the
// paper observes the sample threshold transfers directly: "if G'
// preserves the properties of G, then we expect that t should be
// identical to t'".
func (w *Workload) ExtrapolatePartition(p core.Partition) core.Partition { return p }

// Extrapolate implements core.Sampled: the identity, as
// ExtrapolatePartition.
func (w *Workload) Extrapolate(tSample float64) float64 { return tSample }
