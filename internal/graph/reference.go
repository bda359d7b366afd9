package graph

// This file freezes the pre-tuning scratch-based CC kernels as
// reference implementations. The served kernels in scratch.go, run on
// a prefix or range of the original CSR, must reproduce a reference
// run on the materialized subgraph bit for bit — labels, component
// counts, and the Rounds/VerticesVisited/EdgesVisited work counters
// the platform simulator charges time from — which the golden
// equivalence suite asserts per dataset class and the fuzz tests
// assert on random graphs. BenchmarkKernels records served-vs-reference
// speedups into BENCH_kernels.json. The references are frozen: tune
// scratch.go, not this file.

// DFSRef is the frozen reference for DFSPrefixInto.
func DFSRef(g *Graph, res *CCResult, s *CCScratch) {
	labels := s.labelsFor(g.N)
	for v := range labels {
		labels[v] = -1
	}
	*res = CCResult{Labels: labels}
	if cap(s.stack) == 0 {
		s.stack = make([]int32, 0, 1024)
	}
	stack := s.stack
	for start := 0; start < g.N; start++ {
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
			for _, w := range g.Neighbors(int(u)) {
				res.EdgesVisited++
				if labels[w] < 0 {
					labels[w] = root
					res.VerticesVisited++
					stack = append(stack, w)
				}
			}
		}
	}
	s.stack = stack[:0] // keep any growth for the next call
}

// ParallelCPURef is the frozen reference for ParallelCPUPrefixInto: the
// sequentialized partitioned restricted-DFS plus union–find merge,
// with per-arc counter increments and closure-based neighbor access.
func ParallelCPURef(g *Graph, workers int, res *CCResult, s *CCScratch) {
	if workers <= 1 || g.N < 2*workers {
		DFSRef(g, res, s)
		return
	}
	labels := s.labelsFor(g.N)
	for v := range labels {
		labels[v] = -1
	}
	*res = CCResult{Labels: labels}
	if cap(s.stack) == 0 {
		s.stack = make([]int32, 0, 1024)
	}
	stack := s.stack
	for w := 0; w < workers; w++ {
		lo := w * g.N / workers
		hi := (w + 1) * g.N / workers
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
				for _, v := range g.Neighbors(int(u)) {
					res.EdgesVisited++
					if int(v) < lo || int(v) >= hi {
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

	// Merge across part boundaries with union–find over the labels.
	s.uf.Reset(g.N)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if labels[u] != labels[v] {
				s.uf.Union(int(labels[u]), int(labels[v]))
				res.EdgesVisited++
			}
		}
	}
	for v := range labels {
		labels[v] = int32(s.uf.Find(int(labels[v])))
	}
	CanonicalizeMinLabelsCountInto(labels, s.minOfFor(g.N))
	res.Components = NumComponents(labels)
}

// ShiloachVishkinRef is the frozen reference for ShiloachVishkinRangeInto:
// two parent-array copies per round (hooking snapshot and jump
// snapshot), per-arc and per-vertex counter increments, and a branchy
// conditional jump write.
func ShiloachVishkinRef(g *Graph, res *CCResult, s *CCScratch) {
	parent := s.labelsFor(g.N)
	for v := range parent {
		parent[v] = int32(v)
	}
	*res = CCResult{Labels: parent}
	if g.N == 0 {
		return
	}
	active := s.active[:0]
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				active = append(active, Edge{U: int32(u), V: v})
			}
		}
	}
	old := s.oldFor(g.N)
	for len(active) > 0 {
		res.Rounds++
		changed := false
		copy(old, parent)
		keep := active[:0]
		for _, e := range active {
			res.EdgesVisited++
			pu, pv := old[e.U], old[e.V]
			if pu == pv {
				continue // converged; filtered from later rounds
			}
			keep = append(keep, e)
			if pv < pu && old[pu] == pu {
				if pv < parent[pu] {
					parent[pu] = pv
					changed = true
				}
			} else if pu < pv && old[pv] == pv {
				if pu < parent[pv] {
					parent[pv] = pu
					changed = true
				}
			}
		}
		active = keep
		copy(old, parent)
		for v := 0; v < g.N; v++ {
			res.VerticesVisited++
			np := old[old[v]]
			if np != parent[v] && np < parent[v] {
				parent[v] = np
				changed = true
			}
		}
		if !changed && len(active) > 0 {
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
	CanonicalizeMinLabelsCountInto(parent, s.minOfFor(g.N))
	res.Components = NumComponents(parent)
}
