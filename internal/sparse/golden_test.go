package sparse

// Randomized and boundary equivalence tests for the tuned sparse
// kernels, complementing the dataset-level golden suite at the repo
// root: random CSRs (including wide matrices that exercise the
// strip-mined symbolic path), the accumulator-pool retention bound,
// and the rounded split-target contract.

import (
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// randomCSRTriplets builds a random rows×cols CSR with about nnz
// entries (duplicates collapse) and unit-offset values.
func randomCSRTriplets(t testing.TB, r *xrand.Rand, rows, cols, nnz int) *CSR {
	t.Helper()
	ri := make([]int32, nnz)
	ci := make([]int32, nnz)
	vs := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		ri[k] = int32(r.Intn(rows))
		ci[k] = int32(r.Intn(cols))
		vs[k] = r.Float64()*2 - 1
	}
	m, err := FromTriplets(rows, cols, ri, ci, vs)
	if err != nil {
		t.Fatalf("FromTriplets(%dx%d, %d): %v", rows, cols, nnz, err)
	}
	return m
}

// TestRandomKernelsMatchReference cross-checks every tuned kernel
// against its reference on random matrices of varying shape and
// density — the random counterpart of the per-class golden suite.
func TestRandomKernelsMatchReference(t *testing.T) {
	r := xrand.New(0x9e3779b9)
	shapes := []struct{ rows, cols, nnz int }{
		{1, 1, 1},
		{17, 5, 30},
		{64, 64, 400},
		{200, 50, 1500},
		{50, 200, 1500},
		{300, 300, 300}, // ultra-sparse: many empty rows
	}
	for _, sh := range shapes {
		a := randomCSRTriplets(t, r, sh.rows, sh.cols, sh.nnz)
		b := randomCSRTriplets(t, r, a.Cols, sh.rows, sh.nnz)
		load, err := LoadVector(a, b)
		if err != nil {
			t.Fatal(err)
		}
		loadRef, err := LoadVectorRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(load, loadRef) {
			t.Fatalf("%dx%d: load vector differs from reference", sh.rows, sh.cols)
		}

		counts, flops, err := RowOutputCounts(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		countsRef, flopsRef, err := RowOutputCountsRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if flops != flopsRef || !reflect.DeepEqual(counts, countsRef) {
			t.Fatalf("%dx%d: symbolic counts differ from reference", sh.rows, sh.cols)
		}

		prefix := prefixSums(load)
		for tt := 0; tt <= 100; tt++ {
			frac := float64(tt) / 100
			wantSplit := SplitRowByWorkRef(load, frac)
			if gotSplit := SplitRowByWorkPrefix(prefix, frac); gotSplit != wantSplit {
				t.Fatalf("%dx%d: SplitRowByWorkPrefix(%v) = %d, reference %d",
					sh.rows, sh.cols, frac, gotSplit, wantSplit)
			}
		}
	}
}

// TestWideSymbolicBlockedPath drives the strip-mined symbolic counter:
// B wider than symResidentCols with per-row candidate counts strictly
// between symSortMax and Cols/4 takes the rowNNZBlocked branch, which
// must agree with the dense-marker reference exactly.
func TestWideSymbolicBlockedPath(t *testing.T) {
	r := xrand.New(0xabcdef12)
	const (
		aRows = 160
		inner = 300
		wide  = 2 * symResidentCols
	)
	a := randomCSRTriplets(t, r, aRows, inner, 4*aRows)
	b := randomCSRTriplets(t, r, inner, wide, 50*inner)

	// Confirm the shape actually lands in the blocked regime for at
	// least one row (flops in (symSortMax, wide/4)).
	bLen := b.Index().RowLen
	blocked := 0
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		var flops int64
		for _, j := range cols {
			flops += int64(bLen[j])
		}
		if flops > symSortMax && flops < wide/4 {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatalf("test shape never reaches the blocked symbolic path; adjust densities")
	}

	counts, flops, err := RowOutputCounts(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	countsRef, flopsRef, err := RowOutputCountsRef(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if flops != flopsRef {
		t.Fatalf("blocked symbolic flops %d, reference %d", flops, flopsRef)
	}
	if !reflect.DeepEqual(counts, countsRef) {
		t.Fatalf("blocked symbolic counts differ from reference")
	}

	// The numeric product over the same shape must stay exact too
	// (row() shares the candidate bookkeeping).
	c, mmFlops, err := SpMM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("SpMM output invalid: %v", err)
	}
	if mmFlops != flops {
		t.Fatalf("numeric flops %d, symbolic %d", mmFlops, flops)
	}
	var total int64
	for i := range counts {
		if counts[i] != int64(c.RowNNZ(i)) {
			t.Fatalf("row %d: symbolic nnz %d, numeric %d", i, counts[i], c.RowNNZ(i))
		}
		total += counts[i]
	}
	if total != int64(c.NNZ()) {
		t.Fatalf("symbolic total %d, numeric nnz %d", total, c.NNZ())
	}
}

// TestAccumulatorOversizeDrop pins the pool-retention bound: a scratch
// whose capacity exceeds accRetainFactor × the last requested width is
// dropped (unless it is small enough to fall under accRetainFloor).
func TestAccumulatorOversizeDrop(t *testing.T) {
	big := newSpmmAccumulator(100000)
	big.ensure(100000)
	if !putAccumulator(big) {
		t.Fatalf("full-width scratch must be retained")
	}

	big = newSpmmAccumulator(100000)
	big.ensure(10)
	if putAccumulator(big) {
		t.Fatalf("100000-cap scratch last used for 10 columns must be dropped")
	}

	small := newSpmmAccumulator(64)
	small.ensure(4)
	if !putAccumulator(small) {
		t.Fatalf("scratch under accRetainFloor must be retained regardless of ratio")
	}

	// Boundary: capacity exactly at the floor is exempt even when the
	// ratio test would drop it.
	floor := newSpmmAccumulator(accRetainFloor)
	floor.ensure(1)
	if !putAccumulator(floor) {
		t.Fatalf("scratch at exactly accRetainFloor capacity must be retained")
	}

	// Boundary: capacity exactly accRetainFactor × request is kept.
	exact := newSpmmAccumulator(4 * (accRetainFloor + 1))
	exact.ensure(accRetainFloor + 1)
	if !putAccumulator(exact) {
		t.Fatalf("scratch at exactly the retain factor must be retained")
	}
	over := newSpmmAccumulator(4*accRetainFloor + 5)
	over.ensure(accRetainFloor)
	if putAccumulator(over) {
		t.Fatalf("scratch just past the retain factor must be dropped")
	}
}

// prefixSums returns the prefix-sum array SplitRowByWorkPrefix reads:
// len(load)+1 entries, starting at 0.
func prefixSums(load []int64) []int64 {
	prefix := make([]int64, len(load)+1)
	for i, v := range load {
		prefix[i+1] = prefix[i] + v
	}
	return prefix
}

// TestSplitRowByWorkRounding pins the rounded-target contract of the
// served prefix-sum split and its reference on boundary loads where
// truncation would pick a different row.
func TestSplitRowByWorkRounding(t *testing.T) {
	cases := []struct {
		load []int64
		frac float64
		want int
	}{
		{[]int64{1, 1, 1}, 1.0 / 3, 1},  // frac·total = 0.99…9: round up to boundary 1
		{[]int64{1, 1, 1}, 2.0 / 3, 2},  // symmetric upper third
		{[]int64{3, 3, 3}, 1.0 / 3, 1},  // target 3 lands exactly on the row-0 boundary
		{[]int64{10}, 0.04, 0},          // target rounds to 0: keep everything right
		{[]int64{10}, 0.06, 0},          // target 1 of 10: boundary 0 is closer
		{[]int64{10}, 0.96, 1},          // target 10: full prefix
		{[]int64{0, 0, 0}, 0.5, 0},      // zero total: first boundary ties at 0
		{[]int64{5, 0, 0, 5}, 0.5, 1},   // zero rows between equal halves
		{[]int64{1, 1000, 1}, 0.5, 1},   // giant middle row: nearest boundary is before it
		{[]int64{1, 1000, 1}, 0.999, 2}, // just under the top: boundary after the hub
		{[]int64{}, 0.5, 0},             // empty load
		{[]int64{7, 7}, 0, 0},           // frac 0 pins left
		{[]int64{7, 7}, 1, 2},           // frac 1 pins right
	}
	for _, c := range cases {
		if got := SplitRowByWorkPrefix(prefixSums(c.load), c.frac); got != c.want {
			t.Errorf("SplitRowByWorkPrefix(%v, %v) = %d, want %d", c.load, c.frac, got, c.want)
		}
		if got := SplitRowByWorkRef(c.load, c.frac); got != c.want {
			t.Errorf("SplitRowByWorkRef(%v, %v) = %d, want %d", c.load, c.frac, got, c.want)
		}
	}
}
