// Package datasets provides synthetic replicas of the paper's Table II
// inputs. The originals come from the University of Florida sparse
// matrix collection; this repository generates structurally matching
// stand-ins (same class — FEM/banded, power-law web graph, near-planar
// road network, Delaunay mesh — with the same shape statistics),
// scaled down by a per-dataset factor so that the exhaustive 0..100
// threshold sweeps the paper compares against finish in seconds.
//
// The sampling method's behaviour depends on structural statistics
// (degree distributions, bandwidth, irregularity), not absolute size,
// so the scaled replicas exercise the same regimes — including the
// paper's observation that web and road networks are the hardest
// inputs for sampling.
package datasets

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// Dataset describes one Table II replica.
type Dataset struct {
	// Name is the paper's dataset name.
	Name string
	// Group classifies the instance: "fem", "web", "road" or "mesh".
	Group string
	// PaperN and PaperNNZ are the original sizes from Table II.
	PaperN, PaperNNZ int
	// Scale is the down-scaling divisor applied to both dimensions.
	Scale int
	// MatrixClass is the generator family for the matrix view.
	MatrixClass sparse.Class
	// GraphKind is the generator family for the graph view (used by
	// the CC case study).
	GraphKind graph.GenKind
	// ScaleFree marks membership in the paper's Section V set
	// ("matrices in rows 1 through 11 excluding 4 and 7").
	ScaleFree bool
	// Seed fixes the synthetic instance.
	Seed uint64
}

// N returns the scaled row/vertex count.
func (d Dataset) N() int { return d.PaperN / d.Scale }

// NNZ returns the scaled nonzero/edge target.
func (d Dataset) NNZ() int { return d.PaperNNZ / d.Scale }

// All returns the full Table II registry in the paper's order.
func All() []Dataset {
	return []Dataset{
		{Name: "cant", Group: "fem", PaperN: 62451, PaperNNZ: 4007383, Scale: 20,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindMesh, ScaleFree: true, Seed: 101},
		{Name: "consph", Group: "fem", PaperN: 83334, PaperNNZ: 6010480, Scale: 30,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindMesh, ScaleFree: true, Seed: 102},
		{Name: "cop20k_A", Group: "fem", PaperN: 121192, PaperNNZ: 2624331, Scale: 13,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindGNM, ScaleFree: true, Seed: 103},
		{Name: "delaunay_n22", Group: "mesh", PaperN: 4194304, PaperNNZ: 25165738, Scale: 128,
			MatrixClass: sparse.ClassRoad, GraphKind: graph.KindMesh, Seed: 104},
		{Name: "pdb1HYS", Group: "fem", PaperN: 36417, PaperNNZ: 4344765, Scale: 40,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindMesh, ScaleFree: true, Seed: 105},
		{Name: "pwtk", Group: "fem", PaperN: 217918, PaperNNZ: 11634424, Scale: 58,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindMesh, ScaleFree: true, Seed: 106},
		{Name: "qcd5_4", Group: "fem", PaperN: 49152, PaperNNZ: 1916928, Scale: 10,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindMesh, Seed: 107},
		{Name: "rma10", Group: "fem", PaperN: 46835, PaperNNZ: 2374001, Scale: 12,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindMesh, ScaleFree: true, Seed: 108},
		{Name: "shipsec1", Group: "fem", PaperN: 140874, PaperNNZ: 7813404, Scale: 39,
			MatrixClass: sparse.ClassFEM, GraphKind: graph.KindMesh, ScaleFree: true, Seed: 109},
		{Name: "web-BerkStan", Group: "web", PaperN: 685230, PaperNNZ: 7600595, Scale: 24,
			MatrixClass: sparse.ClassPowerLaw, GraphKind: graph.KindRMAT, ScaleFree: true, Seed: 110},
		{Name: "webbase-1M", Group: "web", PaperN: 1000005, PaperNNZ: 3105536, Scale: 33,
			MatrixClass: sparse.ClassPowerLaw, GraphKind: graph.KindRMAT, ScaleFree: true, Seed: 111},
		{Name: "asia_osm", Group: "road", PaperN: 11950757, PaperNNZ: 25423206, Scale: 120,
			MatrixClass: sparse.ClassRoad, GraphKind: graph.KindRoad, Seed: 112},
		{Name: "germany_osm", Group: "road", PaperN: 11548845, PaperNNZ: 24738362, Scale: 115,
			MatrixClass: sparse.ClassRoad, GraphKind: graph.KindRoad, Seed: 113},
		{Name: "italy_osm", Group: "road", PaperN: 6686493, PaperNNZ: 14027956, Scale: 67,
			MatrixClass: sparse.ClassRoad, GraphKind: graph.KindRoad, Seed: 114},
		{Name: "netherlands_osm", Group: "road", PaperN: 2216688, PaperNNZ: 4882476, Scale: 22,
			MatrixClass: sparse.ClassRoad, GraphKind: graph.KindRoad, Seed: 115},
	}
}

// ByName returns the dataset with the given name.
func ByName(name string) (Dataset, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// ScaleFreeSet returns the Section V subset used by the HH-CPU case
// study.
func ScaleFreeSet() []Dataset {
	var out []Dataset
	for _, d := range All() {
		if d.ScaleFree {
			out = append(out, d)
		}
	}
	return out
}

var (
	cacheMu      sync.Mutex
	matrixCache  = map[string]*sparse.CSR{}
	patternCache = map[string]*sparse.CSR{}
	graphCache   = map[string]*graph.Graph{}
)

// Matrix generates (and caches) the dataset's matrix replica.
func (d Dataset) Matrix() (*sparse.CSR, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if m, ok := matrixCache[d.Name]; ok {
		return m, nil
	}
	m, err := sparse.Generate(sparse.GenConfig{
		Class: d.MatrixClass,
		Rows:  d.N(),
		NNZ:   d.NNZ(),
		Seed:  d.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("datasets: generating %s: %w", d.Name, err)
	}
	matrixCache[d.Name] = m
	return m, nil
}

// Pattern returns the dataset's matrix replica without its values: one
// cached view sharing Matrix's structure, for callers that read only
// the sparsity pattern. Every caller shares the view, and with it the
// structural index the kernels build on first use.
func (d Dataset) Pattern() (*sparse.CSR, error) {
	m, err := d.Matrix()
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	p, ok := patternCache[d.Name]
	if !ok {
		p = &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx}
		patternCache[d.Name] = p
	}
	return p, nil
}

// Graph generates (and caches) the dataset's graph replica (the "when
// viewed as a matrix / graph" duality of Table II).
func (d Dataset) Graph() (*graph.Graph, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := graphCache[d.Name]; ok {
		return g, nil
	}
	g, err := graph.Generate(graph.GenGraphConfig{
		Kind: d.GraphKind,
		N:    d.N(),
		M:    d.NNZ() / 2, // Table II counts nnz; edges are half
		Seed: d.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("datasets: generating graph %s: %w", d.Name, err)
	}
	graphCache[d.Name] = g
	return g, nil
}

// ResetCache clears the generation cache (used by tests).
func ResetCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	matrixCache = map[string]*sparse.CSR{}
	patternCache = map[string]*sparse.CSR{}
	graphCache = map[string]*graph.Graph{}
}
