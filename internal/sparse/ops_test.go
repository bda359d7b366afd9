package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLoadVectorMatchesFlops(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassUniform, Rows: 60, Cols: 60, NNZ: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	load, err := LoadVector(a, a)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range load {
		total += v
	}
	// The load sum (the profiles' total work) equals the multiply-adds
	// the actual SpMM performs.
	_, flops, err := SpMM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if flops != total {
		t.Fatalf("SpMM flops %d != load sum %d", flops, total)
	}
}

func TestLoadVectorDimsError(t *testing.T) {
	a := small3x4(t) // 3x4
	if _, err := LoadVector(a, a); err == nil {
		t.Error("incompatible dims accepted")
	}
}

func TestSplitRowByWork(t *testing.T) {
	load := []int64{10, 10, 10, 10} // total 40
	cases := []struct {
		frac float64
		want int
	}{
		{0, 0}, {-1, 0}, {1, 4}, {2, 4},
		{0.5, 2}, {0.25, 1}, {0.26, 1}, {0.49, 2},
	}
	prefix := prefixSums(load)
	for _, c := range cases {
		if got := SplitRowByWorkPrefix(prefix, c.frac); got != c.want {
			t.Errorf("SplitRowByWorkPrefix(%v) = %d, want %d", c.frac, got, c.want)
		}
	}
	// Highly skewed load: one row dominates.
	skew := []int64{1, 1, 96, 1, 1}
	if got := SplitRowByWorkPrefix(prefixSums(skew), 0.5); got != 2 && got != 3 {
		t.Errorf("skewed split = %d, want boundary adjacent to heavy row", got)
	}
}

func TestSplitRowByWorkProperty(t *testing.T) {
	f := func(raw []uint8, fracRaw uint8) bool {
		load := make([]int64, len(raw))
		for i, v := range raw {
			load[i] = int64(v)
		}
		frac := float64(fracRaw) / 255
		i := SplitRowByWorkPrefix(prefixSums(load), frac)
		return i >= 0 && i <= len(load)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// naiveSpMM is an O(n·m·k) reference used to verify the Gustavson kernel.
func naiveSpMM(a, b *CSR) *Dense {
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := a.At(i, j)
			if av == 0 {
				continue
			}
			for k := 0; k < b.Cols; k++ {
				bv := b.At(j, k)
				if bv != 0 {
					c.Data[i*c.Cols+k] += av * bv
				}
			}
		}
	}
	return c
}

func matchesDense(t *testing.T, got *CSR, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("dims %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
				t.Fatalf("C(%d,%d) = %v, want %v", i, j, g, w)
			}
		}
	}
}

func TestSpMMAgainstNaive(t *testing.T) {
	for _, class := range []Class{ClassUniform, ClassPowerLaw, ClassFEM} {
		a, err := Generate(GenConfig{Class: class, Rows: 50, Cols: 50, NNZ: 300, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := SpMM(a, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: invalid product: %v", class, err)
		}
		matchesDense(t, c, naiveSpMM(a, a))
	}
}

func TestSpMMRectangular(t *testing.T) {
	a, _ := Generate(GenConfig{Class: ClassUniform, Rows: 20, Cols: 30, NNZ: 100, Seed: 17})
	b, _ := Generate(GenConfig{Class: ClassUniform, Rows: 30, Cols: 10, NNZ: 90, Seed: 18})
	c, _, err := SpMM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	matchesDense(t, c, naiveSpMM(a, b))
	if _, _, err := SpMM(b, b); err == nil {
		t.Error("incompatible dims accepted")
	}
}

func TestSpMMEmptyRows(t *testing.T) {
	// Matrix with some completely empty rows.
	a, _ := FromTriplets(4, 4, []int32{0, 3}, []int32{1, 2}, []float64{2, 3})
	c, flops, err := SpMM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	matchesDense(t, c, naiveSpMM(a, a))
	// Row 0 of A hits row 1 of A (empty), row 3 hits row 2 (empty): 0 flops.
	if flops != 0 {
		t.Fatalf("flops = %d, want 0", flops)
	}
}

func TestSpMMParallelMatchesSequential(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: 300, Cols: 300, NNZ: 4000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	seq, seqFlops, err := SpMM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		par, parFlops, err := SpMMParallel(a, a, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel product differs", workers)
		}
		if parFlops != seqFlops {
			t.Fatalf("workers=%d: flops %d != %d", workers, parFlops, seqFlops)
		}
	}
	if _, _, err := SpMMParallel(a, a.RowSlice(0, 5), 2); err == nil {
		t.Error("incompatible dims accepted")
	}
}

func TestVStack(t *testing.T) {
	m := small3x4(t)
	top := m.RowSlice(0, 1)
	bottom := m.RowSlice(1, 3)
	back, err := VStack(top, bottom)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Error("VStack(RowSlice parts) != original")
	}
	if _, err := VStack(); err == nil {
		t.Error("VStack of nothing accepted")
	}
	other, _ := FromTriplets(1, 2, []int32{0}, []int32{0}, []float64{1})
	if _, err := VStack(top, other); err == nil {
		t.Error("column mismatch accepted")
	}
	pat, _ := FromTriplets(1, 4, []int32{0}, []int32{0}, nil)
	if _, err := VStack(top, pat); err == nil {
		t.Error("pattern/value mix accepted")
	}
}

func TestAdd(t *testing.T) {
	a := small3x4(t)
	zero, _ := FromTriplets(3, 4, nil, nil, []float64{})
	sum, err := Add(a, zero)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(a) {
		t.Error("A + 0 != A")
	}
	twice, err := Add(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if twice.At(i, j) != 2*a.At(i, j) {
				t.Fatalf("(A+A)(%d,%d) = %v", i, j, twice.At(i, j))
			}
		}
	}
	if _, err := Add(a, a.RowSlice(0, 2)); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestAddDisjointStructure(t *testing.T) {
	a, _ := FromTriplets(2, 2, []int32{0}, []int32{0}, []float64{1})
	b, _ := FromTriplets(2, 2, []int32{1}, []int32{1}, []float64{2})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NNZ() != 2 || sum.At(0, 0) != 1 || sum.At(1, 1) != 2 {
		t.Fatalf("disjoint add wrong: nnz=%d", sum.NNZ())
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMSplitEquivalence(t *testing.T) {
	// Core property behind Algorithm 2: computing A1×B and A2×B
	// separately and stacking equals A×B.
	a, err := Generate(GenConfig{Class: ClassUniform, Rows: 120, Cols: 120, NNZ: 1500, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := SpMM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{0, 1, 60, 119, 120} {
		top, _, err := SpMM(a.RowSlice(0, split), a)
		if err != nil {
			t.Fatal(err)
		}
		bot, _, err := SpMM(a.RowSlice(split, a.Rows), a)
		if err != nil {
			t.Fatal(err)
		}
		glued, err := VStack(top, bot)
		if err != nil {
			t.Fatal(err)
		}
		if !glued.Equal(whole) {
			t.Fatalf("split at %d: stacked product differs", split)
		}
	}
}

func TestLoadVectorIntoMatchesLoadVector(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: 80, Cols: 80, NNZ: 700, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadVector(a, a)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int64, a.Rows)
	got, err := LoadVectorInto(dst, a, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LoadVectorInto[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := LoadVectorInto(dst, a, a); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("LoadVectorInto with reusable destination: %v allocs, want 0", n)
	}
}

func TestRowOutputCountsMatchesSpMM(t *testing.T) {
	for _, class := range []Class{ClassUniform, ClassPowerLaw, ClassFEM} {
		a, err := Generate(GenConfig{Class: class, Rows: 70, Cols: 70, NNZ: 600, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		c, flops, err := SpMM(a, a)
		if err != nil {
			t.Fatal(err)
		}
		counts, symFlops, err := RowOutputCounts(nil, a, a)
		if err != nil {
			t.Fatal(err)
		}
		if symFlops != flops {
			t.Errorf("class %v: symbolic flops %d, SpMM flops %d", class, symFlops, flops)
		}
		for i := 0; i < a.Rows; i++ {
			if counts[i] != int64(c.RowNNZ(i)) {
				t.Errorf("class %v row %d: symbolic nnz %d, real %d", class, i, counts[i], c.RowNNZ(i))
			}
		}
	}
	// Dimension mismatch must error like SpMM.
	a, _ := Generate(GenConfig{Class: ClassUniform, Rows: 4, Cols: 5, NNZ: 6, Seed: 1})
	b, _ := Generate(GenConfig{Class: ClassUniform, Rows: 4, Cols: 4, NNZ: 6, Seed: 1})
	if _, _, err := RowOutputCounts(nil, a, b); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestAccumulatorPoolReuse hammers pooled accumulators across shapes so
// the ensure() resize paths (grow within capacity, shrink, realloc)
// all run; results must stay exact.
func TestAccumulatorPoolReuse(t *testing.T) {
	sizes := []int{64, 16, 96, 8, 64}
	for _, n := range sizes {
		a, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: n, Cols: n, NNZ: 6 * n, Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		c, flops, err := SpMM(a, a)
		if err != nil {
			t.Fatal(err)
		}
		counts, symFlops, err := RowOutputCounts(nil, a, a)
		if err != nil {
			t.Fatal(err)
		}
		if symFlops != flops {
			t.Fatalf("n=%d: symbolic flops %d, SpMM flops %d", n, symFlops, flops)
		}
		var total int64
		for i := range counts {
			total += counts[i]
		}
		if total != int64(c.NNZ()) {
			t.Fatalf("n=%d: symbolic nnz %d, real %d", n, total, c.NNZ())
		}
	}
}
