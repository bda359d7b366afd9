package sparse

import "fmt"

// This file holds the reference implementations of the tuned CSR
// kernels in ops.go. Each reference is the straightforward, obviously
// correct form of the kernel contract; the golden equivalence suite
// (sparse fuzz tests plus the per-dataset-class suite in the repo
// root) asserts the tuned kernels produce bit-identical output, and
// the BenchmarkKernels harness records tuned-vs-reference speedups
// into BENCH_kernels.json. The references are frozen: tune ops.go,
// not this file.

// LoadVectorRef is the reference load-vector computation: for each
// row of A, sum the row lengths of B over A's stored columns, reading
// the lengths as RowPtr differences. Integer arithmetic — the tuned
// kernel must match it exactly.
func LoadVectorRef(a, b *CSR) ([]int64, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparse: LoadVector dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := make([]int64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s int64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			s += b.RowPtr[j+1] - b.RowPtr[j]
		}
		out[i] = s
	}
	return out, nil
}

// RowOutputCountsRef is the reference symbolic Gustavson pass: one
// dense marker the size of B's column dimension, scanned row by row.
// This is the exact algorithm RowOutputCounts used before the blocked
// rewrite; the adaptive kernel must reproduce its counts and flop
// totals exactly on every input.
func RowOutputCountsRef(a, b *CSR) ([]int64, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("sparse: RowOutputCounts dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := make([]int64, a.Rows)
	marker := make([]int32, b.Cols)
	for i := range marker {
		marker[i] = -1
	}
	var flops int64
	for i := 0; i < a.Rows; i++ {
		var nnz int64
		aCols, _ := a.Row(i)
		for _, j := range aCols {
			lo, hi := b.RowPtr[j], b.RowPtr[j+1]
			flops += hi - lo
			for k := lo; k < hi; k++ {
				c := b.ColIdx[k]
				if marker[c] != int32(i) {
					marker[c] = int32(i)
					nnz++
				}
			}
		}
		out[i] = nnz
	}
	return out, flops, nil
}

// SplitRowByWorkRef is the reference split-row scan: materialize the
// total, round the target, and walk the load vector accumulating the
// prefix until it brackets the target, choosing the closer boundary.
// SplitRowByWorkPrefix (the binary search over cached prefix sums)
// must agree with it on every (load, frac) pair.
func SplitRowByWorkRef(load []int64, frac float64) int {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return len(load)
	}
	var total int64
	for _, v := range load {
		total += v
	}
	target := roundedTarget(frac, total)
	var prefix int64
	for i, v := range load {
		if prefix+v >= target {
			if target-prefix <= prefix+v-target {
				return i
			}
			return i + 1
		}
		prefix += v
	}
	return len(load)
}
