package sparse

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Class labels the structural family of a synthetic matrix; each family
// mirrors one group of the paper's Table II datasets.
type Class int

// Matrix structural classes.
const (
	// ClassUniform places nonzeros uniformly at random: the
	// "unstructured" sparse matrices of Section IV.
	ClassUniform Class = iota
	// ClassFEM produces banded matrices with small dense row blocks
	// clustered near the diagonal, like cant, consph, pdb1HYS, pwtk,
	// qcd5_4, rma10, shipsec1.
	ClassFEM
	// ClassPowerLaw produces scale-free matrices whose row densities
	// follow a power law, like web-BerkStan and webbase-1M.
	ClassPowerLaw
	// ClassRoad produces near-planar, low-degree matrices resembling
	// road networks (asia_osm and friends): degrees 2-4, long paths.
	ClassRoad
)

func (c Class) String() string {
	switch c {
	case ClassUniform:
		return "uniform"
	case ClassFEM:
		return "fem"
	case ClassPowerLaw:
		return "powerlaw"
	case ClassRoad:
		return "road"
	}
	return "unknown"
}

// GenConfig configures a synthetic matrix generator.
type GenConfig struct {
	Class Class
	Rows  int
	Cols  int // 0 means square
	NNZ   int // target nonzero count (approximate for some classes)

	// PowerLaw exponent for ClassPowerLaw (default 1.8) and maximum
	// row degree as a fraction of Cols (default 0.5).
	PowerLawExponent float64
	MaxDegreeFrac    float64

	// Bandwidth for ClassFEM as a fraction of Cols (default 0.05);
	// entries in a row fall within a band of this width around the
	// scaled diagonal.
	BandwidthFrac float64

	Seed uint64
}

func (cfg *GenConfig) withDefaults() GenConfig {
	out := *cfg
	if out.Cols == 0 {
		out.Cols = out.Rows
	}
	if out.PowerLawExponent == 0 {
		out.PowerLawExponent = 1.8
	}
	if out.MaxDegreeFrac == 0 {
		out.MaxDegreeFrac = 0.5
	}
	if out.BandwidthFrac == 0 {
		out.BandwidthFrac = 0.05
	}
	return out
}

// Generate builds a synthetic matrix per cfg. The result always has
// real values in (0, 1] and passes Validate.
func Generate(cfg GenConfig) (*CSR, error) {
	c := cfg.withDefaults()
	if c.Rows <= 0 || c.Cols <= 0 {
		return nil, fmt.Errorf("sparse: Generate with %dx%d", c.Rows, c.Cols)
	}
	maxNNZ := int64(c.Rows) * int64(c.Cols)
	if int64(c.NNZ) > maxNNZ {
		return nil, fmt.Errorf("sparse: Generate nnz %d exceeds %dx%d", c.NNZ, c.Rows, c.Cols)
	}
	r := xrand.New(c.Seed)
	var m *CSR
	switch c.Class {
	case ClassUniform:
		m = genUniform(r, c)
	case ClassFEM:
		m = genFEM(r, c)
	case ClassPowerLaw:
		m = genPowerLaw(r, c)
	case ClassRoad:
		m = genRoad(r, c)
	default:
		return nil, fmt.Errorf("sparse: unknown class %v", c.Class)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("sparse: generator produced invalid matrix: %w", err)
	}
	return m, nil
}

// fillRowUnique draws k distinct columns for one row through s, which
// the generator reuses for every row.
func fillRowUnique(r *xrand.Rand, s *xrand.Subset, cols, k int, out []int32) []int32 {
	if k > cols {
		k = cols
	}
	for _, c := range s.Draw(r, cols, k) {
		out = append(out, int32(c))
	}
	return out
}

func genUniform(r *xrand.Rand, c GenConfig) *CSR {
	// Spread NNZ evenly with small jitter, then draw distinct columns
	// per row.
	per := c.NNZ / c.Rows
	rem := c.NNZ - per*c.Rows
	rowIdx := make([]int32, 0, c.NNZ)
	colIdx := make([]int32, 0, c.NNZ)
	var sub xrand.Subset
	for i := 0; i < c.Rows; i++ {
		k := per
		if i < rem {
			k++
		}
		start := len(colIdx)
		colIdx = fillRowUnique(r, &sub, c.Cols, k, colIdx)
		for range colIdx[start:] {
			rowIdx = append(rowIdx, int32(i))
		}
	}
	return withRandomValues(r, fromTripletsUnchecked(c.Rows, c.Cols, rowIdx, colIdx, nil, false))
}

func genFEM(r *xrand.Rand, c GenConfig) *CSR {
	band := int(c.BandwidthFrac * float64(c.Cols))
	if band < 4 {
		band = 4
	}
	per := c.NNZ / c.Rows
	if per < 1 {
		per = 1
	}
	// Very dense instances (pdb1HYS-like) need a band wide enough to
	// hold the requested row density with room for the gradient.
	if band < 3*per {
		band = 3 * per
	}
	if band > c.Cols {
		band = c.Cols
	}
	rowIdx := make([]int32, 0, c.NNZ)
	colIdx := make([]int32, 0, c.NNZ)
	seen := make(map[int32]struct{}, 4*per)
	for i := 0; i < c.Rows; i++ {
		// Row density drifts across the matrix (mesh refinement
		// regions): rows near the end carry ~2x the density of rows
		// near the start, plus mild per-row jitter. The gradient is
		// why predetermined corner blocks of FEM matrices are biased
		// samples (Fig. 7) while uniform random samples are not.
		gradient := 0.6 + 0.8*float64(i)/float64(c.Rows)
		k := int(float64(per)*gradient) + r.Intn(per/2+1) - per/4
		if k < 1 {
			k = 1
		}
		center := int(float64(i) / float64(c.Rows) * float64(c.Cols))
		lo := center - band/2
		hi := center + band/2
		if lo < 0 {
			lo = 0
		}
		if hi > c.Cols {
			hi = c.Cols
		}
		width := hi - lo
		if k > width {
			k = width
		}
		for col := range seen {
			delete(seen, col)
		}
		// FEM rows contain short contiguous runs (element couplings).
		for len(seen) < k {
			runStart := lo + r.Intn(width)
			runLen := 1 + r.Intn(4)
			for t := 0; t < runLen && len(seen) < k; t++ {
				col := runStart + t
				if col >= hi {
					break
				}
				seen[int32(col)] = struct{}{}
			}
		}
		for col := range seen {
			rowIdx = append(rowIdx, int32(i))
			colIdx = append(colIdx, col)
		}
	}
	return withRandomValues(r, fromTripletsUnchecked(c.Rows, c.Cols, rowIdx, colIdx, nil, false))
}

func genPowerLaw(r *xrand.Rand, c GenConfig) *CSR {
	dmax := int(c.MaxDegreeFrac * float64(c.Cols))
	if dmax < 2 {
		dmax = 2
	}
	deg := xrand.PowerLawDegrees(r, c.Rows, c.PowerLawExponent, 1, dmax, c.NNZ)
	// Cluster the hubs: crawl-ordered web graphs keep well-linked
	// pages in contiguous id ranges, so the heaviest rows are placed
	// in a contiguous band at a random offset (wrapping around). A
	// predetermined block sample over- or under-samples this band —
	// the bias Fig. 7 demonstrates — while uniform random row
	// sampling does not.
	sortDescInts(deg)
	hub := r.Intn(c.Rows)
	perm := make([]int, c.Rows)
	for i := range perm {
		perm[i] = (hub + i) % c.Rows
	}
	rowIdx := make([]int32, 0, c.NNZ)
	colIdx := make([]int32, 0, c.NNZ)
	var sub xrand.Subset
	for i, k := range deg {
		row := int32(perm[i])
		start := len(colIdx)
		colIdx = fillRowUnique(r, &sub, c.Cols, k, colIdx)
		for range colIdx[start:] {
			rowIdx = append(rowIdx, row)
		}
	}
	return withRandomValues(r, fromTripletsUnchecked(c.Rows, c.Cols, rowIdx, colIdx, nil, false))
}

// sortDescInts sorts a in descending order.
func sortDescInts(a []int) {
	sort.Sort(sort.Reverse(sort.IntSlice(a)))
}

func genRoad(r *xrand.Rand, c GenConfig) *CSR {
	// Build a 2-D grid graph over ~Rows nodes with a few random
	// shortcuts, symmetric like a road network's adjacency matrix.
	// Degrees land in 2..5 and the structure is near-planar.
	n := c.Rows
	side := int(math.Sqrt(float64(n)))
	if side < 2 {
		side = 2
	}
	type edge struct{ u, v int32 }
	edges := make([]edge, 0, 2*n)
	add := func(u, v int) {
		if u >= 0 && v >= 0 && u < n && v < n && u != v {
			edges = append(edges, edge{int32(u), int32(v)})
		}
	}
	// Thin the grid links toward the requested density: real road
	// networks average ~2 nonzeros per row, well below a full grid.
	keep := 1.0
	if c.NNZ > 0 {
		expected := 2.0 * float64(n) // east + north links per vertex
		keep = float64(c.NNZ) / 2 / expected
		if keep > 1 {
			keep = 1
		}
	}
	for i := 0; i < n; i++ {
		row := i / side
		if r.Float64() < keep {
			add(i, i+1) // east (also joins row ends, keeping long paths)
		}
		if row > 0 && r.Float64() < keep {
			add(i, i-side) // north
		}
		// Occasional diagonal shortcuts give road networks their
		// irregular local structure.
		if r.Float64() < 0.05*keep {
			add(i, i-side-1)
		}
	}
	// A few long-range shortcuts (highways).
	for k := 0; k < n/200+1; k++ {
		add(r.Intn(n), r.Intn(n))
	}
	rowIdx := make([]int32, 0, 2*len(edges))
	colIdx := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		rowIdx = append(rowIdx, e.u, e.v)
		colIdx = append(colIdx, e.v, e.u)
	}
	m := fromTripletsUnchecked(n, n, rowIdx, colIdx, nil, false)
	if m.Cols < c.Cols {
		m.Cols = c.Cols
	}
	return withRandomValues(r, m)
}

// withRandomValues assigns uniform (0,1] values to a pattern matrix.
func withRandomValues(r *xrand.Rand, m *CSR) *CSR {
	m.Vals = make([]float64, m.NNZ())
	for k := range m.Vals {
		m.Vals[k] = 1 - r.Float64() // (0, 1]
	}
	return m
}

// Dense is a row-major dense matrix used by the dense-MM motivation
// experiment (Fig. 1).
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zero dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }
