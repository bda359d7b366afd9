// Package store implements hetstore: a persistent threshold store
// keyed by structural feature vectors with nearest-neighbor lookup.
//
// The paper's Extrapolate step argues that input *structure* predicts
// the balanced threshold; the serving stack's exact-match LRU only
// helps on byte-identical repeats. hetstore closes that gap: each
// estimated input contributes an entry (structural features → verified
// threshold), and later requests whose features fall within a tunable
// radius of a stored neighbor either warm-start the Identify sweep
// around the neighbor's threshold or skip Identify entirely behind a
// cheap verification probe. Every entry is a verified answer for its
// own input on the platform that computed it, and only lookups from
// that platform see it. Per-entry confidence grows on verified
// transfers, decays on probe rejections and on warm searches that run
// into the window's edge, and gates the skip.
package store

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// Features is the structural fingerprint of one input: the quantities
// the partition landscape actually depends on, cheap to compute in one
// O(nnz) pass and shared with hetsim's irregularity model through
// internal/stats.
type Features struct {
	// Rows is the row (or vertex) count.
	Rows int `json:"rows"`
	// NNZ is the stored-entry (or arc) count.
	NNZ int `json:"nnz"`
	// MeanWork is the mean work per item: nnz/row for matrices,
	// degree for graphs.
	MeanWork float64 `json:"mean_work"`
	// WorkCV is the coefficient of variation of per-item work — the
	// divergence statistic the device model charges for.
	WorkCV float64 `json:"work_cv"`
	// WorkSkew is the skewness of per-item work: hub-heaviness.
	// Power-law inputs sit far positive, meshes near zero.
	WorkSkew float64 `json:"work_skew"`
	// MaxShare is the largest single item's fraction of total work —
	// distinguishes one-giant-hub inputs from broadly skewed ones at
	// equal CV.
	MaxShare float64 `json:"max_share"`
	// Bandwidth is the mean normalized distance of stored entries
	// from the diagonal, in [0, 1]: near 0 for banded/mesh structure
	// (good locality), near uniform-random (~1/3) for scrambled
	// structure.
	Bandwidth float64 `json:"bandwidth"`
}

// FromCSR computes the feature vector of a sparse matrix.
func FromCSR(m *sparse.CSR) Features {
	mo := stats.MomentsOf(m.Rows, m.RowNNZ)
	f := Features{
		Rows:     m.Rows,
		NNZ:      m.NNZ(),
		MeanWork: mo.Mean,
		WorkCV:   mo.CV,
		WorkSkew: mo.Skew,
	}
	if f.NNZ > 0 {
		f.MaxShare = float64(mo.Max) / float64(f.NNZ)
	}
	span := float64(m.Cols - 1)
	if span > 0 && f.NNZ > 0 {
		var sum float64
		for i := 0; i < m.Rows; i++ {
			lo, hi := m.RowPtr[i], m.RowPtr[i+1]
			for _, j := range m.ColIdx[lo:hi] {
				sum += math.Abs(float64(int(j) - i))
			}
		}
		f.Bandwidth = sum / float64(f.NNZ) / span
	}
	return f
}

// FromGraph computes the feature vector of a graph, treating arcs as
// stored entries so a matrix and its graph view produce comparable
// features.
func FromGraph(g *graph.Graph) Features {
	mo := stats.MomentsOf(g.N, g.Degree)
	f := Features{
		Rows:     g.N,
		NNZ:      g.Arcs(),
		MeanWork: mo.Mean,
		WorkCV:   mo.CV,
		WorkSkew: mo.Skew,
	}
	if f.NNZ > 0 {
		f.MaxShare = float64(mo.Max) / float64(f.NNZ)
	}
	span := float64(g.N - 1)
	if span > 0 && f.NNZ > 0 {
		var sum float64
		for u := 0; u < g.N; u++ {
			for _, v := range g.Neighbors(u) {
				sum += math.Abs(float64(int(v) - u))
			}
		}
		f.Bandwidth = sum / float64(f.NNZ) / span
	}
	return f
}

// Matrixer is implemented by workloads backed by a sparse matrix
// (hetspmm, hetscale).
type Matrixer interface {
	Matrix() *sparse.CSR
}

// Grapher is implemented by workloads backed by a graph (hetcc).
type Grapher interface {
	Graph() *graph.Graph
}

// FeaturesOf extracts the feature vector from a workload that exposes
// its underlying matrix or graph. The second return is false for
// workloads that expose neither.
func FeaturesOf(w any) (Features, bool) {
	switch t := w.(type) {
	case Matrixer:
		return FromCSR(t.Matrix()), true
	case Grapher:
		return FromGraph(t.Graph()), true
	default:
		return Features{}, false
	}
}

// Vector returns the normalized coordinates nearest-neighbor distance
// is measured in. Sizes enter logarithmically (a 2× size change
// matters equally at every scale), unbounded shape statistics are
// squashed into [0, 1) so no single feature can dominate, and the
// already-bounded shares pass through.
func (f Features) Vector() [7]float64 {
	const logScale = 25 // log1p(1e9) ≈ 20.7: realistic sizes land in [0, 1)
	return [7]float64{
		math.Log1p(float64(f.Rows)) / logScale,
		math.Log1p(float64(f.NNZ)) / logScale,
		math.Log1p(f.MeanWork) / 10,
		f.WorkCV / (1 + f.WorkCV),
		f.WorkSkew / (1 + math.Abs(f.WorkSkew)),
		f.MaxShare,
		f.Bandwidth,
	}
}

// Distance returns the Euclidean distance between the normalized
// vectors of f and g.
func (f Features) Distance(g Features) float64 {
	a, b := f.Vector(), g.Vector()
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// String renders the features as a comma-separated list led by a
// format version, the form hetserve reports in an answer's "features"
// field.
func (f Features) String() string {
	return strings.Join([]string{
		"1",
		strconv.Itoa(f.Rows),
		strconv.Itoa(f.NNZ),
		strconv.FormatFloat(f.MeanWork, 'g', 9, 64),
		strconv.FormatFloat(f.WorkCV, 'g', 9, 64),
		strconv.FormatFloat(f.WorkSkew, 'g', 9, 64),
		strconv.FormatFloat(f.MaxShare, 'g', 9, 64),
		strconv.FormatFloat(f.Bandwidth, 'g', 9, 64),
	}, ",")
}
