package graph

// CCScratch is the reusable working memory of one in-flight connected-
// components kernel. The kernels (DFSPrefixInto, ParallelCPUPrefixInto,
// ShiloachVishkinRangeInto and the frozen references) draw every
// buffer they need from a scratch instead of the heap, which is what
// makes a threshold evaluation in a parallel Identify sweep
// allocation-free: each search worker owns one scratch and reuses it
// across grid points.
//
// A scratch serves one kernel call at a time; the result's Labels alias
// the scratch and stay valid only until its next use. The zero value is
// ready to use.
type CCScratch struct {
	labels []int32
	stack  []int32
	active []Edge
	old    []int32
	// jump is the third parent buffer of the range Shiloach–Vishkin:
	// the pointer-jumping pass writes into it and the roles swap each
	// round, replacing one of the reference kernel's two O(n) parent
	// copies per round.
	jump []int32
	// roots is a per-vertex bitmap of the snapshot's root set
	// (old[v] == v), rebuilt during each jump pass. The hooking scan
	// tests it instead of gathering old[pu] — the bitmap is 32×
	// smaller than the parent array and stays cache-resident.
	roots []uint64
	uf    UnionFind
	minOf []int32
}

// labelsFor returns the scratch label buffer resized to n.
func (s *CCScratch) labelsFor(n int) []int32 {
	if cap(s.labels) < n {
		s.labels = make([]int32, n)
	}
	s.labels = s.labels[:n]
	return s.labels
}

func (s *CCScratch) oldFor(n int) []int32 {
	if cap(s.old) < n {
		s.old = make([]int32, n)
	}
	s.old = s.old[:n]
	return s.old
}

func (s *CCScratch) jumpFor(n int) []int32 {
	if cap(s.jump) < n {
		s.jump = make([]int32, n)
	}
	s.jump = s.jump[:n]
	return s.jump
}

func (s *CCScratch) rootsFor(n int) []uint64 {
	words := (n + 63) >> 6
	if cap(s.roots) < words {
		s.roots = make([]uint64, words)
	}
	s.roots = s.roots[:words]
	return s.roots
}

func (s *CCScratch) minOfFor(n int) []int32 {
	if cap(s.minOf) < n {
		s.minOf = make([]int32, n)
	}
	s.minOf = s.minOf[:n]
	return s.minOf
}

// DFSPrefixInto computes connected components with an iterative
// depth-first search, the paper's sequential CPU kernel, on the prefix
// subgraph with vertex set [0, n) of a sorted-adjacency CSR: row u
// contributes its first split[u] arcs (the neighbors < n). Labels are
// the minimum vertex id of each component. The result is written into
// res (fully overwritten); res.Labels alias s. It produces the
// identical CCResult (labels and counters) as materializing the prefix
// sub-CSR and running DFSRef on it, without copying a single arc. The
// inner loop charges EdgesVisited per popped vertex (its prefix
// degree) instead of per arc — the same totals.
func DFSPrefixInto(rowPtr []int64, adj []int32, split []int32, n int, res *CCResult, s *CCScratch) {
	labels := s.labelsFor(n)
	for v := range labels {
		labels[v] = -1
	}
	*res = CCResult{Labels: labels}
	if cap(s.stack) == 0 {
		s.stack = make([]int32, 0, 1024)
	}
	stack := s.stack
	for start := 0; start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		res.Components++
		root := int32(start)
		labels[start] = root
		stack = append(stack[:0], root)
		res.VerticesVisited++
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo := rowPtr[u]
			hi := lo + int64(split[u])
			res.EdgesVisited += hi - lo
			for k := lo; k < hi; k++ {
				if w := adj[k]; labels[w] < 0 {
					labels[w] = root
					res.VerticesVisited++
					stack = append(stack, w)
				}
			}
		}
	}
	s.stack = stack[:0]
}

// ParallelCPUPrefixInto is the paper's multi-threaded CPU kernel
// (Phase I line 6: "Divide G_CPU into equal parts") on the prefix
// subgraph with vertex set [0, n) whose row u is the first split[u]
// arcs of the masked CSR row (see DFSPrefixInto): the range is divided
// into workers equal parts, a DFS restricted to each part labels it,
// and a union–find pass over the part-crossing arcs merges the
// labelings. Work counters are summed over all parts, so EdgesVisited
// is total (not critical-path) work; the cost model divides by the
// worker count. Identical CCResult to ParallelCPURef on the
// materialized prefix sub-CSR, with no arc copies.
//
// The parts run one after another on the calling goroutine: each part
// reads and writes labels only inside its own vertex range, so the
// partial labelings are independent and sequential execution yields
// the identical result. The search engine already saturates the
// machine across grid points; nested per-evaluation goroutines would
// only add scheduling overhead.
//
// It returns the number of cross-part arcs under the workers-way
// contiguous decomposition — the quantity the heterogeneous cost model
// charges its CPU merge kernel for. The merge pass locates every
// boundary-crossing row's in-part range anyway, so the count rides
// along for free instead of costing the caller a second row scan.
func ParallelCPUPrefixInto(rowPtr []int64, adj []int32, split []int32, n, workers int, res *CCResult, s *CCScratch) (crossArcs int64) {
	if workers <= 1 || n < 2*workers {
		DFSPrefixInto(rowPtr, adj, split, n, res, s)
		return CrossPartPrefix(rowPtr, adj, split, n, workers)
	}
	labels := s.labelsFor(n)
	for v := range labels {
		labels[v] = -1
	}
	*res = CCResult{Labels: labels}
	if cap(s.stack) == 0 {
		s.stack = make([]int32, 0, 1024)
	}
	stack := s.stack
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		span := uint(hi - lo)
		for start := lo; start < hi; start++ {
			if labels[start] >= 0 {
				continue
			}
			root := int32(start)
			labels[start] = root
			res.VerticesVisited++
			stack = append(stack[:0], root)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				alo := rowPtr[u]
				ahi := alo + int64(split[u])
				res.EdgesVisited += ahi - alo
				for k := alo; k < ahi; k++ {
					v := adj[k]
					if uint(int(v)-lo) >= span {
						continue // cross-part edge; merged later
					}
					if labels[v] < 0 {
						labels[v] = root
						res.VerticesVisited++
						stack = append(stack, v)
					}
				}
			}
		}
	}
	s.stack = stack[:0]

	// Merge across part boundaries. Within a part the restricted DFS
	// gives adjacent vertices the same label, so only a row's
	// out-of-part neighbors — the sorted prefix below the part and
	// suffix at or above it — can differ and contribute unions or
	// EdgesVisited increments. Rows entirely inside their part (the
	// vast majority on locality-ordered graphs) are skipped with two
	// endpoint loads.
	s.uf.Reset(n)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		lo32, hi32 := int32(lo), int32(hi)
		for u := lo; u < hi; u++ {
			alo := rowPtr[u]
			row := adj[alo : alo+int64(split[u])]
			if len(row) == 0 || (row[0] >= lo32 && row[len(row)-1] < hi32) {
				continue
			}
			lu := labels[u]
			below := lowerBound32(row, lo32)
			above := lowerBound32(row, hi32)
			crossArcs += int64(below) + int64(len(row)-above)
			for _, v := range row[:below] {
				if lv := labels[v]; lu != lv {
					s.uf.Union(int(lu), int(lv))
					res.EdgesVisited++
				}
			}
			for _, v := range row[above:] {
				if lv := labels[v]; lu != lv {
					s.uf.Union(int(lu), int(lv))
					res.EdgesVisited++
				}
			}
		}
	}
	res.Components = CanonicalizeRootsInto(labels, &s.uf, s.minOfFor(n))
	return crossArcs
}

// CrossPartPrefix counts the prefix subgraph's cross-part arcs under a
// workers-way contiguous decomposition — the same per-part boundary
// searches as ParallelCPUPrefixInto's merge pass, and the same count it
// returns — from the CSR structure alone, with no labels. The
// heterogeneous CC cost model charges its CPU merge from this count, so
// a time-only run calls it in place of the whole prefix kernel; it also
// backs ParallelCPUPrefixInto's DFS fallback, where no merge pass runs
// to count them.
func CrossPartPrefix(rowPtr []int64, adj []int32, split []int32, n, workers int) int64 {
	if workers <= 1 {
		// One part spans [0, n) and every prefix arc points below n
		// by the split-index contract, so nothing crosses.
		return 0
	}
	var cross int64
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		lo32, hi32 := int32(lo), int32(hi)
		for u := lo; u < hi; u++ {
			alo := rowPtr[u]
			row := adj[alo : alo+int64(split[u])]
			if len(row) == 0 || (row[0] >= lo32 && row[len(row)-1] < hi32) {
				continue
			}
			cross += int64(lowerBound32(row, lo32)) + int64(len(row)-lowerBound32(row, hi32))
		}
	}
	return cross
}

// lowerBound32 returns the first index in the sorted slice whose value
// is >= bound: linear for short rows, binary search for long ones.
func lowerBound32(row []int32, bound int32) int {
	if len(row) <= 16 {
		k := 0
		for k < len(row) && row[k] < bound {
			k++
		}
		return k
	}
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ShiloachVishkinRangeInto computes connected components with the
// hooking + pointer-jumping algorithm of Shiloach and Vishkin, the
// paper's GPU kernel, on the subgraph induced by the vertex range
// [lo, hi) of a sorted-adjacency CSR, renumbered from 0: row u
// contributes its arcs from position lower[u] (the first neighbor
// >= lo) up to the first neighbor >= hi. Labels are the minimum
// (renumbered) vertex id of each component; res.Labels alias s.
//
// Every round scans the active arcs for hooks and then jumps every
// pointer once, so Rounds, VerticesVisited and EdgesVisited are the
// work a GPU implementation performs; the simulator charges GPU time
// from them. Hooking reads a snapshot of the parent array taken at the
// start of the round, as one GPU kernel launch over the arc list sees
// the pre-round state; conflicting hooks onto one root resolve to the
// minimum, a deterministic stand-in for the arbitrary winner of real
// hardware. Arcs whose endpoints converged are dropped from later
// rounds, as GPU implementations filter them (Soman et al.).
// High-diameter graphs need many rounds and many arc re-scans, the
// property that makes GPUs slow on road networks.
//
// It produces the identical CCResult as materializing the range
// sub-CSR and running ShiloachVishkinRef on it — the frontier is built
// in the same (u ascending, k ascending) order — without copying a
// single arc. The heterogeneous CC runner evaluates every
// accelerator's range this way with a precomputed split index, and
// the GPU-only baseline runs the whole graph as the range [0, n) with
// lower all zero.
func ShiloachVishkinRangeInto(rowPtr []int64, adj []int32, lower []int32, lo, hi int, res *CCResult, s *CCScratch) {
	active := s.active[:0]
	b, h := int32(lo), int32(hi)
	for u := lo; u < hi; u++ {
		uu := int32(u)
		for _, v := range adj[rowPtr[u]+int64(lower[u]) : rowPtr[u+1]] {
			if v >= h {
				break // sorted row: the rest lies past the range
			}
			if uu < v {
				active = append(active, Edge{U: uu - b, V: v - b})
			}
		}
	}
	s.active = active
	shiloachVishkinRun(hi-lo, res, s)
}

// shiloachVishkinRun executes the hooking/jumping rounds over the
// frontier staged in s.active for an n-vertex graph.
//
// It is the tuned form of ShiloachVishkinRef, exploiting the kernel's
// parent-monotonicity invariant: every write keeps parent[v] <= v
// (initialization sets parent[v] = v, hooking writes a smaller root,
// jumping writes old[old[v]] <= old[v]). Each consequence preserves
// bit-identical labels and counters:
//
//   - the jump pass writes parent[parent[v]] into a separate buffer
//     (s.jump) and into the snapshot buffer, then swaps roles, so both
//     of the reference's O(n) parent copies per round disappear (reads
//     all come from the untouched current buffer, and the snapshot for
//     the next round is exactly this round's jump output);
//   - round 1 runs against the identity forest, where the hooking rule
//     provably reduces to a running min-scatter over the (u < v)
//     frontier with no convergence filtering;
//   - because old[old[v]] <= old[v] always holds, the reference's
//     "did it shrink" comparison reduces to "did it change", tracked
//     branch-free by OR-ing XOR deltas instead of a data-dependent
//     conditional store;
//   - EdgesVisited/VerticesVisited are charged per round (frontier
//     length and vertex count) instead of per arc — same totals, no
//     increment in the inner loops.
func shiloachVishkinRun(n int, res *CCResult, s *CCScratch) {
	parent := s.labelsFor(n)
	for v := range parent {
		parent[v] = int32(v)
	}
	*res = CCResult{Labels: parent}
	if n == 0 {
		s.active = s.active[:0]
		return
	}
	active := s.active
	old := s.oldFor(n)
	next := s.jumpFor(n)
	roots := s.rootsFor(n)
	first := true
	for len(active) > 0 {
		res.Rounds++
		res.EdgesVisited += int64(len(active))
		hooked := false
		if first {
			// Round 1 runs against the identity forest: for every edge
			// (u < v by construction) the snapshot values are pu = u,
			// pv = v, so pu != pv (nothing converges), the smaller
			// endpoint is always pu, old[pv] == pv always holds, and
			// the general hooking rule collapses to a running
			// min-scatter that keeps the whole frontier.
			first = false
			for _, e := range active {
				if e.U < parent[e.V] {
					parent[e.V] = e.U
					hooked = true
				}
			}
		} else {
			kn := 0
			for _, e := range active {
				pu, pv := old[e.U], old[e.V]
				if pu == pv {
					continue // converged; filtered from later rounds
				}
				active[kn] = e
				kn++
				// Hook the root of the larger label onto the smaller;
				// only roots (per the snapshot) may be hooked — the
				// bitmap answers old[x] == x without gathering from
				// the full parent-sized snapshot. The reference's
				// two-sided rule is "the larger of pu, pv is hooked
				// with the smaller as candidate"; selecting hi/lo with
				// conditional moves keeps one code path and spares the
				// data-dependent branch.
				hi, lo := max(pu, pv), min(pu, pv)
				if roots[uint32(hi)>>6]>>(uint32(hi)&63)&1 != 0 && lo < parent[hi] {
					parent[hi] = lo
					hooked = true
				}
			}
			active = active[:kn]
		}
		res.VerticesVisited += int64(n)
		// The jump pass also materializes the next round's snapshot:
		// after the swap parent holds exactly the values being written
		// here, so storing them into old as well replaces the
		// reference's copy(old, parent) at the top of each round. It
		// rebuilds the root bitmap on the way: jumping never changes
		// the root set (parent[parent[r]] == r forces parent[r] == r
		// under the monotonicity invariant), so the snapshot roots of
		// the next round are exactly the post-hook roots seen here.
		var diff int32
		var rw uint64
		p, d, o := parent[:n], next[:n], old[:n]
		for v := 0; v < n; v++ {
			pv := p[v]
			np := p[pv]
			d[v] = np
			o[v] = np
			diff |= np ^ pv
			isRoot := uint64(0)
			if pv == int32(v) {
				isRoot = 1
			}
			rw |= isRoot << (uint(v) & 63)
			if uint(v)&63 == 63 {
				roots[uint(v)>>6] = rw
				rw = 0
			}
		}
		if uint(n)&63 != 0 {
			roots[uint(n)>>6] = rw
		}
		parent, next = next, parent
		if !hooked && diff == 0 && len(active) > 0 {
			filtered := active[:0]
			for _, e := range active {
				if parent[e.U] != parent[e.V] {
					filtered = append(filtered, e)
				}
			}
			active = filtered
			if len(active) > 0 {
				break // cannot happen (see hooking invariant); guard against livelock
			}
		}
	}
	s.active = active[:0]
	res.Labels = parent
	res.Components = CanonicalizeMinLabelsCountInto(parent, s.minOfFor(n))
}

// CanonicalizeMinLabelsCountInto rewrites labels so each component is
// labeled by its minimum vertex id, using minOf (len(labels) entries)
// as scratch, and returns the component count. One ascending pass
// suffices: the first vertex to visit a representative is the
// component's minimum, and each first visit is exactly one component.
func CanonicalizeMinLabelsCountInto(labels, minOf []int32) int {
	for i := range minOf {
		minOf[i] = -1
	}
	components := 0
	for v, l := range labels {
		if minOf[l] < 0 {
			minOf[l] = int32(v)
			components++
		}
		labels[v] = minOf[l]
	}
	return components
}

// CanonicalizeRootsInto resolves each label through uf, whose sets
// are over label values, and rewrites it to its component's minimum
// vertex id, using minOf (len(labels) entries) as scratch; it returns
// the component count. Resolving and canonicalizing share one
// ascending pass: the first vertex to reach a union-find root is its
// component's minimum, and each first visit is exactly one component.
func CanonicalizeRootsInto(labels []int32, uf *UnionFind, minOf []int32) int {
	for i := range minOf {
		minOf[i] = -1
	}
	components := 0
	for v := range labels {
		r := uf.Find(int(labels[v]))
		if minOf[r] < 0 {
			minOf[r] = int32(v)
			components++
		}
		labels[v] = minOf[r]
	}
	return components
}

// Reset reinitializes the forest to n singleton sets, reusing the
// backing arrays when capacity allows.
func (uf *UnionFind) Reset(n int) {
	if cap(uf.parent) < n {
		uf.parent = make([]int32, n)
		uf.rank = make([]int8, n)
	}
	uf.parent = uf.parent[:n]
	uf.rank = uf.rank[:n]
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	clear(uf.rank)
	uf.Unions, uf.Finds = 0, 0
}
