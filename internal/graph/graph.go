// Package graph implements the undirected-graph substrate for the
// connected-components case study: a CSR adjacency structure, synthetic
// generators matching the paper's dataset classes, induced-subgraph
// sampling (the Sample step of the CC framework), and three connected-
// components algorithms — sequential DFS (the paper's CPU kernel),
// a partitioned multi-threaded CPU variant, and Shiloach–Vishkin (the
// paper's GPU kernel), with per-round work counters exposed so the
// platform simulator can charge costs for the work actually performed.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Graph is an undirected graph in CSR adjacency form. Every edge {u,v}
// is stored twice (in Adj[u] and Adj[v]); self-loops are stored once.
// Adjacency lists are sorted and duplicate-free.
type Graph struct {
	N      int
	RowPtr []int64
	Adj    []int32
}

// M returns the number of undirected edges (half the stored arc count,
// counting self-loops once).
func (g *Graph) M() int {
	loops := 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				loops++
			}
		}
	}
	return (len(g.Adj)-loops)/2 + loops
}

// Arcs returns the number of stored directed arcs (2m for loop-free
// graphs). This is the work-volume measure used by the cost models.
func (g *Graph) Arcs() int { return len(g.Adj) }

// Degree returns the number of stored neighbors of u.
func (g *Graph) Degree(u int) int { return int(g.RowPtr[u+1] - g.RowPtr[u]) }

// Neighbors returns the adjacency list of u; the slice aliases the
// graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.Adj[g.RowPtr[u]:g.RowPtr[u+1]]
}

// HasEdge reports whether the arc (u, v) is stored.
func (g *Graph) HasEdge(u, v int) bool {
	adj := g.Neighbors(u)
	k := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	return k < len(adj) && adj[k] == int32(v)
}

// Validate checks structural invariants: sorted duplicate-free
// adjacency, in-range endpoints, and symmetric storage.
func (g *Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative N")
	}
	if len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 || g.RowPtr[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: RowPtr endpoints invalid")
	}
	for u := 0; u < g.N; u++ {
		if g.RowPtr[u] > g.RowPtr[u+1] {
			return fmt.Errorf("graph: row %d has negative extent", u)
		}
		var prev int32 = -1
		for _, v := range g.Neighbors(u) {
			if v < 0 || int(v) >= g.N {
				return fmt.Errorf("graph: vertex %d has neighbor %d outside [0,%d)", u, v, g.N)
			}
			if v <= prev {
				return fmt.Errorf("graph: vertex %d adjacency not strictly ascending", u)
			}
			prev = v
		}
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(int(v), u) {
				return fmt.Errorf("graph: arc (%d,%d) has no reverse", u, v)
			}
		}
	}
	return nil
}

// Edge is an undirected edge.
type Edge struct{ U, V int32 }

// FromEdges builds a graph on n vertices from an edge list. Each edge
// is symmetrized; duplicates and repeated self-loops are collapsed.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	rows := make([]int32, 0, 2*len(edges))
	cols := make([]int32, 0, 2*len(edges))
	for k, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge %d = (%d,%d) outside [0,%d)", k, e.U, e.V, n)
		}
		rows = append(rows, e.U)
		cols = append(cols, e.V)
		if e.U != e.V {
			rows = append(rows, e.V)
			cols = append(cols, e.U)
		}
	}
	m, err := sparse.FromTriplets(n, n, rows, cols, nil)
	if err != nil {
		return nil, err
	}
	return &Graph{N: n, RowPtr: m.RowPtr, Adj: m.ColIdx}, nil
}

// FromCSR interprets a square sparse matrix as an undirected graph:
// each stored entry (i, j) becomes an arc, and the structure is
// symmetrized if needed. Values are ignored. This is how the paper's
// Table II matrices are "viewed as" graphs for the CC workload.
//
// The adjacency of vertex i is row i of pattern(A) ∪ pattern(Aᵀ): a
// counting-sort transpose yields each column's rows in ascending order,
// and a sorted merge of row i of A with row i of Aᵀ yields the union
// once sized and once written, so Adj holds exactly the arcs.
func FromCSR(m *sparse.CSR) (*Graph, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("graph: matrix %dx%d is not square", m.Rows, m.Cols)
	}
	n := m.Rows
	tPtr := make([]int64, n+1)
	for _, j := range m.ColIdx {
		tPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		tPtr[j+1] += tPtr[j]
	}
	tAdj := make([]int32, len(m.ColIdx))
	next := make([]int64, n)
	copy(next, tPtr)
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		for _, j := range cols {
			tAdj[next[j]] = int32(i)
			next[j]++
		}
	}
	rowPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		rowPtr[i+1] = rowPtr[i] + int64(mergeUnion(nil, cols, tAdj[tPtr[i]:tPtr[i+1]]))
	}
	adj := make([]int32, rowPtr[n])
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		mergeUnion(adj[rowPtr[i]:rowPtr[i+1]], cols, tAdj[tPtr[i]:tPtr[i+1]])
	}
	return &Graph{N: n, RowPtr: rowPtr, Adj: adj}, nil
}

// mergeUnion writes the union of the strictly ascending lists a and b,
// ascending, into dst and returns its length; a nil dst only counts.
func mergeUnion(dst, a, b []int32) int {
	w, x, y := 0, 0, 0
	for x < len(a) && y < len(b) {
		v := a[x]
		switch {
		case v < b[y]:
			x++
		case v > b[y]:
			v = b[y]
			y++
		default:
			x++
			y++
		}
		if dst != nil {
			dst[w] = v
		}
		w++
	}
	if dst != nil {
		copy(dst[w:], a[x:])
		copy(dst[w+len(a)-x:], b[y:])
	}
	return w + len(a) - x + len(b) - y
}

// InducedSubgraph returns G[S], the subgraph induced by the given
// vertex set (deduplicated), with vertices renumbered 0..|S)-1 in the
// sorted order of S. It also returns the sorted original vertex ids.
// This is the Sample step of the paper's CC case study: "We choose a
// set S of √n vertices of G uniformly at random. We then set G' as the
// graph induced by S in G."
func (g *Graph) InducedSubgraph(s []int) (*Graph, []int, error) {
	vs := append([]int(nil), s...)
	sort.Ints(vs)
	vs = dedupSortedInts(vs)
	for _, v := range vs {
		if v < 0 || v >= g.N {
			return nil, nil, fmt.Errorf("graph: sample vertex %d outside [0,%d)", v, g.N)
		}
	}
	remap := make(map[int32]int32, len(vs))
	for i, v := range vs {
		remap[int32(v)] = int32(i)
	}
	edges := make([]Edge, 0, len(vs)*2)
	for i, v := range vs {
		for _, w := range g.Neighbors(v) {
			nw, ok := remap[w]
			if !ok {
				continue
			}
			if int32(i) <= nw {
				edges = append(edges, Edge{int32(i), nw})
			}
		}
	}
	sub, err := FromEdges(len(vs), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, vs, nil
}

func dedupSortedInts(a []int) []int {
	if len(a) == 0 {
		return a
	}
	w := 1
	for i := 1; i < len(a); i++ {
		if a[i] != a[w-1] {
			a[w] = a[i]
			w++
		}
	}
	return a[:w]
}

// ContractedSample builds the miniature G' used by the CC sampling
// framework: k vertices S are drawn uniformly at random, each keeps its
// full adjacency list, and every edge endpoint outside S is remapped to
// the nearest sampled vertex by original id (ties toward the lower id).
// Self-loops created by the contraction are dropped and duplicate edges
// collapse.
//
// Unlike the plain induced subgraph G[S] — which for a sparse graph at
// k = √n is almost empty (each edge survives with probability (k/n)²)
// and therefore carries no partitioning signal — the contraction
// preserves the properties the partition landscape depends on: the
// degree distribution (each sampled vertex keeps its own degree), the
// average density, and id-locality (grid-like graphs stay grid-like,
// so Shiloach–Vishkin still needs many rounds on a road-network
// sample). This mirrors the paper's scale-free SpMM sampler, which
// keeps per-row structure and transforms "the column indices so that
// the column indices are within 1 to √n".
// keepFrac in (0, 1] additionally thins the kept edges: each scanned
// arc survives with probability keepFrac. Thinning scales both
// devices' costs down proportionally — the partition landscape keeps
// its shape — while reducing the cost of each Identify evaluation,
// which is what keeps the estimation overhead at the paper's ~9%.
func (g *Graph) ContractedSample(r *xrand.Rand, k int, keepFrac float64) (*Graph, []int, error) {
	if k > g.N {
		k = g.N
	}
	if k <= 0 {
		return nil, nil, fmt.Errorf("graph: ContractedSample with k=%d", k)
	}
	if keepFrac <= 0 || keepFrac > 1 {
		return nil, nil, fmt.Errorf("graph: ContractedSample keepFrac %v outside (0, 1]", keepFrac)
	}
	s := subsetPool.Get().(*xrand.Subset)
	defer subsetPool.Put(s)
	return g.ContractedSampleFrom(r, s.Draw(r, g.N, k), keepFrac)
}

// subsetPool recycles the vertex samplers' subset draws, so a sample
// allocates only what it returns.
var subsetPool = sync.Pool{New: func() any { return new(xrand.Subset) }}

// ContractedSampleFrom builds the contracted miniature over a caller-
// chosen vertex set (sorted, deduplicated internally) — e.g. one drawn
// by ImportanceSampleVertices. r drives only the edge thinning.
func (g *Graph) ContractedSampleFrom(r *xrand.Rand, vertices []int, keepFrac float64) (*Graph, []int, error) {
	if len(vertices) == 0 {
		return nil, nil, fmt.Errorf("graph: ContractedSampleFrom with empty vertex set")
	}
	if keepFrac <= 0 || keepFrac > 1 {
		return nil, nil, fmt.Errorf("graph: ContractedSampleFrom keepFrac %v outside (0, 1]", keepFrac)
	}
	ids := append([]int(nil), vertices...)
	sort.Ints(ids)
	ids = dedupSortedInts(ids)
	for _, v := range ids {
		if v < 0 || v >= g.N {
			return nil, nil, fmt.Errorf("graph: sample vertex %d outside [0,%d)", v, g.N)
		}
	}
	// nearest maps an original vertex id to the index (rank) of the
	// closest sampled id.
	nearest := func(v int) int32 {
		i := sort.SearchInts(ids, v)
		if i == 0 {
			return 0
		}
		if i == len(ids) {
			return int32(len(ids) - 1)
		}
		if v-ids[i-1] <= ids[i]-v {
			return int32(i - 1)
		}
		return int32(i)
	}
	edges := make([]Edge, 0, 2*len(ids))
	for rank, u := range ids {
		for _, w := range g.Neighbors(u) {
			if keepFrac < 1 && r.Float64() >= keepFrac {
				continue
			}
			nw := nearest(int(w))
			if int32(rank) == nw {
				continue // contracted self-loop
			}
			if int32(rank) < nw {
				edges = append(edges, Edge{int32(rank), nw})
			} else {
				edges = append(edges, Edge{nw, int32(rank)})
			}
		}
	}
	sample, err := FromEdges(len(ids), edges)
	if err != nil {
		return nil, nil, err
	}
	return sample, ids, nil
}

// ImportanceSampleVertices draws k distinct vertices with probability
// proportional to degree+1 (size-biased sampling), the importance-
// sampling variant the paper defers to future work. High-degree
// vertices — which dominate the work volume — are more likely to be
// represented in the miniature, at the cost of biasing per-vertex
// statistics (callers must account for the weights or, as the CC
// workload does, use it only as an ablation).
//
// Sampling uses one weighted reservoir pass (A-Res with k keys).
func (g *Graph) ImportanceSampleVertices(r *xrand.Rand, k int) []int {
	if k > g.N {
		k = g.N
	}
	if k <= 0 {
		return nil
	}
	// A-Res: key = U^(1/w); keep the k largest keys. A simple
	// selection over n keys is fine at these sizes.
	type cand struct {
		v   int
		key float64
	}
	top := make([]cand, 0, k)
	// min-heap by key, maintained manually (container/heap would
	// need an extra type; k is small).
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if top[p].key <= top[i].key {
				break
			}
			top[p], top[i] = top[i], top[p]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, rr := 2*i+1, 2*i+2
			s := i
			if l < len(top) && top[l].key < top[s].key {
				s = l
			}
			if rr < len(top) && top[rr].key < top[s].key {
				s = rr
			}
			if s == i {
				break
			}
			top[i], top[s] = top[s], top[i]
			i = s
		}
	}
	for v := 0; v < g.N; v++ {
		w := float64(g.Degree(v) + 1)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		key := math.Pow(u, 1/w)
		if len(top) < k {
			top = append(top, cand{v, key})
			siftUp(len(top) - 1)
		} else if key > top[0].key {
			top[0] = cand{v, key}
			siftDown()
		}
	}
	out := make([]int, len(top))
	for i, c := range top {
		out[i] = c.v
	}
	sort.Ints(out)
	return out
}

// SampleVertices draws k distinct vertices uniformly at random.
func (g *Graph) SampleVertices(r *xrand.Rand, k int) []int {
	if k > g.N {
		k = g.N
	}
	if k <= 0 {
		return nil
	}
	s := subsetPool.Get().(*xrand.Subset)
	defer subsetPool.Put(s)
	return slices.Clone(s.Draw(r, g.N, k))
}

// DegreeCV returns the coefficient of variation of the degree
// distribution, the irregularity statistic charged by the GPU model.
// It reads degrees straight off RowPtr with the float operations in
// the exact order of the shared structural-statistics implementation
// (stats.MomentsOf over g.Degree), so the simulator, the threshold
// store and hetgen still agree on one definition bit for bit — the
// golden suite pins the equality. The device models call this on
// every cost evaluation, which is why it avoids MomentsOf's two
// callback-driven passes.
func (g *Graph) DegreeCV() float64 {
	n := g.N
	if n < 2 {
		return 0
	}
	rp := g.RowPtr
	// The degree total is rp[n]-rp[0]; accumulating the integer-valued
	// degrees in float64 is exact (partial sums stay far below 2^53),
	// so the closed form is bit-identical to MomentsOf's sum pass.
	mean := float64(rp[n]-rp[0]) / float64(n)
	if mean <= 0 {
		return 0
	}
	var m2 float64
	lo := rp[0]
	for i := 0; i < n; i++ {
		hi := rp[i+1]
		d := float64(hi-lo) - mean
		m2 += d * d
		lo = hi
	}
	m2 /= float64(n)
	if m2 <= 0 {
		return 0
	}
	return math.Sqrt(m2) / mean
}
