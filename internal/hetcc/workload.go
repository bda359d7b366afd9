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

// NewWorkload wraps graph g for partition-threshold estimation.
func NewWorkload(name string, g *graph.Graph, alg *Algorithm) *Workload {
	return &Workload{name: name, g: g, alg: alg}
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "cc/" + w.name }

// Graph returns the underlying input.
func (w *Workload) Graph() *graph.Graph { return w.g }

// Evaluate implements core.Workload: one full heterogeneous CC run at
// threshold t, returning its simulated duration. It is safe for
// concurrent use — the graph is treated as immutable and each call
// checks a private run scratch (split indexes, frontiers, labels,
// union-find state) out of a pool shared with
// MultiWorkload.EvaluatePartition — so parallel searches
// (core.WithParallelism) may call it from many goroutines on one
// Workload. Reusing pooled scratch across grid points is what makes
// the evaluation loop allocation-free in the steady state.
func (w *Workload) Evaluate(t float64) (time.Duration, error) {
	s := scratchPool.Get().(*splitScratch)
	defer scratchPool.Put(s)
	var res Result
	if err := w.alg.runInto(w.g, t, &res, s); err != nil {
		return 0, err
	}
	return res.Time, nil
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
	k := w.SampleSize
	if k <= 0 {
		k = DefaultSampleSize(w.g.N)
	}
	span.SetAttr("vertices", strconv.Itoa(w.g.N))
	span.SetAttr("sample_vertices", strconv.Itoa(k))
	var sub *graph.Graph
	var ids []int
	var err error
	switch {
	case w.Induced:
		sub, ids, err = w.g.InducedSubgraph(w.g.SampleVertices(r, k))
	case w.Importance:
		sub, ids, err = w.g.ContractedSampleFrom(r, w.g.ImportanceSampleVertices(r, k), w.keep())
	default:
		sub, ids, err = w.g.ContractedSample(r, k, w.keep())
	}
	if err != nil {
		err = fmt.Errorf("hetcc: sampling %s: %w", w.name, err)
		span.RecordError(err)
		return nil, 0, err
	}
	span.SetAttr("sample_edges", strconv.Itoa(sub.M()))
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
		IrregularityCV:   1.0, // hash-probe heavy
	})
	inner := &Workload{name: w.name + "-sample", g: sub, alg: w.alg}
	return inner, cost, nil
}

func (w *Workload) keep() float64 {
	if w.KeepFrac == 0 {
		return 0.5
	}
	return w.KeepFrac
}

// Extrapolate implements core.Sampled. For CC the paper observes the
// sample threshold transfers directly: "if G' preserves the properties
// of G, then we expect that t should be identical to t'".
func (w *Workload) Extrapolate(tSample float64) float64 { return tSample }
