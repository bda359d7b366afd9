package graph

// CCResult is the outcome of a connected-components computation,
// together with the work counters the platform simulator charges
// against the executing device.
type CCResult struct {
	// Labels[v] is the component representative of vertex v; two
	// vertices are in the same component iff their labels are equal.
	Labels []int32
	// Components is the number of connected components.
	Components int
	// VerticesVisited and EdgesVisited count the work actually
	// performed (arcs scanned, including both directions).
	VerticesVisited int64
	EdgesVisited    int64
	// Rounds is the number of hooking+jumping iterations for
	// Shiloach–Vishkin; 0 for traversal-based algorithms.
	Rounds int
}

// NumComponents counts distinct labels in labels (which must be
// canonical representatives, as produced by the algorithms here).
func NumComponents(labels []int32) int {
	n := 0
	for v, l := range labels {
		if int32(v) == l {
			n++
		}
	}
	return n
}

// UnionFind is a disjoint-set forest with union by rank and path
// compression, used to merge partial component labelings and to
// process cross edges in the heterogeneous algorithm. Reset sizes it
// to n singleton sets; the zero value holds none.
type UnionFind struct {
	parent []int32
	rank   []int8
	// Unions counts successful (merging) union operations, a work
	// measure for the merge phase.
	Unions int64
	// Finds counts find operations including those inside Union.
	Finds int64
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	uf.Finds++
	root := int32(x)
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	// Path compression.
	for int32(x) != root {
		next := uf.parent[x]
		uf.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets of x and y, returning true if they were
// previously distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := int32(uf.Find(x)), int32(uf.Find(y))
	if rx == ry {
		return false
	}
	uf.Unions++
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}
