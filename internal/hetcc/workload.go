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
// (it implements core.Sampled). The threshold is the percentage of
// vertices processed on the CPU.
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
	// KeepFrac is the contracted sampler's edge-thinning fraction;
	// 0 means the default of 1/2.
	KeepFrac float64
}

var _ core.Sampled = (*Workload)(nil)

// NewWorkload wraps graph g for partition-threshold estimation. alg is
// a two-device Algorithm (NewAlgorithm); on more devices every
// Evaluate fails with a *core.PartitionError.
func NewWorkload(name string, g *graph.Graph, alg *Algorithm) *Workload {
	return &Workload{name: name, g: g, alg: alg}
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "cc/" + w.name }

// Graph returns the underlying input.
func (w *Workload) Graph() *graph.Graph { return w.g }

// Evaluate implements core.Workload: one full heterogeneous CC run at
// threshold t — the two-device partition {t, 100 - t} — returning its
// simulated duration. It is safe for
// concurrent use — the graph is treated as immutable and each call
// checks a private run scratch (split indexes, frontiers, labels,
// union-find state) out of a pool shared with
// MultiWorkload.EvaluatePartition — so parallel searches
// (core.WithParallelism) may call it from many goroutines on one
// Workload. Reusing pooled scratch across grid points is what makes
// the evaluation loop allocation-free in the steady state.
func (w *Workload) Evaluate(t float64) (time.Duration, error) {
	return w.alg.evaluate(w.g, core.Partition{t, 100 - t})
}

// Sample implements core.Sampled: G' is the contracted sample over a
// uniform random vertex set S of √n vertices (Section III-A.1; see
// graph.ContractedSample for why the contraction rather than the plain
// induced subgraph is used as the miniature). The returned cost
// charges the CPU for drawing S and extracting the sample (a scan of
// the chosen vertices' adjacency lists with binary-search remapping).
// Set Induced to use the plain induced subgraph instead (the ablation
// of the sampler choice).
func (w *Workload) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.cc")
	defer span.Finish()
	sub, cost, err := drawSample(span, r, w.g, w.alg.Platform.CPU, w.name, w.SampleSize, keepOrDefault(w.KeepFrac), w.Induced, w.Importance)
	if err != nil {
		return nil, 0, err
	}
	return &Workload{name: w.name + "-sample", g: sub, alg: w.alg}, cost, nil
}

// drawSample is the sampler body Sample and SamplePartition share: it
// draws the sampled graph (k vertices, √n when k <= 0) and charges cpu
// for drawing the vertex set and scanning the chosen vertices'
// adjacency lists. span, which may be nil, receives the sample's shape.
func drawSample(span *obs.Span, r *xrand.Rand, g *graph.Graph, cpu *hetsim.Device, name string, k int, keep float64, induced, importance bool) (*graph.Graph, time.Duration, error) {
	if k <= 0 {
		k = DefaultSampleSize(g.N)
	}
	span.SetAttr("vertices", strconv.Itoa(g.N))
	span.SetAttr("sample_vertices", strconv.Itoa(k))
	var sub *graph.Graph
	var ids []int
	var err error
	switch {
	case induced:
		sub, ids, err = g.InducedSubgraph(g.SampleVertices(r, k))
	case importance:
		sub, ids, err = g.ContractedSampleFrom(r, g.ImportanceSampleVertices(r, k), keep)
	default:
		sub, ids, err = g.ContractedSample(r, k, keep)
	}
	if err != nil {
		err = fmt.Errorf("hetcc: sampling %s: %w", name, err)
		span.RecordError(err)
		return nil, 0, err
	}
	span.SetAttr("sample_edges", strconv.Itoa(sub.M()))
	var scanned int64
	for _, v := range ids {
		scanned += int64(g.Degree(v))
	}
	cost := cpu.Time(hetsim.Kernel{
		Name:             "cc-sample",
		Ops:              scanned + int64(k),
		Bytes:            4 * (scanned + int64(k)),
		Launches:         1,
		ParallelFraction: 0.5,
		IrregularityCV:   1.0, // hash-probe heavy
	})
	return sub, cost, nil
}

// keepOrDefault resolves a KeepFrac field: 0 means 1/2.
func keepOrDefault(f float64) float64 {
	if f == 0 {
		return 0.5
	}
	return f
}

// Extrapolate implements core.Sampled. For CC the paper observes the
// sample threshold transfers directly: "if G' preserves the properties
// of G, then we expect that t should be identical to t'".
func (w *Workload) Extrapolate(tSample float64) float64 { return tSample }
