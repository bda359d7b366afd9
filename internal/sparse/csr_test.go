package sparse

import (
	"strings"
	"testing"

	"repro/internal/mmio"
)

// small3x4 is a fixed matrix used across tests:
//
//	[ 1 0 2 0 ]
//	[ 0 0 0 3 ]
//	[ 4 5 0 0 ]
func small3x4(t *testing.T) *CSR {
	t.Helper()
	m, err := FromTriplets(3, 4,
		[]int32{0, 0, 1, 2, 2},
		[]int32{0, 2, 3, 0, 1},
		[]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromTripletsBasic(t *testing.T) {
	m := small3x4(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if got := m.At(0, 2); got != 2 {
		t.Fatalf("At(0,2) = %v", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v", got)
	}
	if got := m.RowNNZ(2); got != 2 {
		t.Fatalf("RowNNZ(2) = %v", got)
	}
}

func TestFromTripletsDuplicatesSum(t *testing.T) {
	m, err := FromTriplets(2, 2,
		[]int32{0, 0, 0},
		[]int32{1, 1, 0},
		[]float64{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 after merging", m.NNZ())
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("merged value = %v, want 5", got)
	}
}

func TestFromTripletsPattern(t *testing.T) {
	m, err := FromTriplets(2, 2, []int32{0, 1, 1}, []int32{1, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("pattern nnz = %d, want 2 (duplicate collapsed)", m.NNZ())
	}
	if got := m.At(1, 0); got != 1 {
		t.Fatalf("pattern At = %v, want 1", got)
	}
}

func TestFromTripletsErrors(t *testing.T) {
	if _, err := FromTriplets(2, 2, []int32{0}, []int32{0, 1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromTriplets(2, 2, []int32{0}, []int32{0}, []float64{1, 2}); err == nil {
		t.Error("values length mismatch accepted")
	}
	if _, err := FromTriplets(2, 2, []int32{2}, []int32{0}, []float64{1}); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := FromTriplets(2, 2, []int32{0}, []int32{-1}, []float64{1}); err == nil {
		t.Error("negative col accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := small3x4(t)
	m.ColIdx[1] = 99
	if err := m.Validate(); err == nil {
		t.Error("out-of-range column not caught")
	}
	m = small3x4(t)
	m.ColIdx[0], m.ColIdx[1] = m.ColIdx[1], m.ColIdx[0]
	if err := m.Validate(); err == nil {
		t.Error("unsorted columns not caught")
	}
	m = small3x4(t)
	m.RowPtr[1] = 10
	if err := m.Validate(); err == nil {
		t.Error("bad row pointer not caught")
	}
	m = small3x4(t)
	m.RowPtr = m.RowPtr[:2]
	if err := m.Validate(); err == nil {
		t.Error("short RowPtr not caught")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := small3x4(t)
	c := m.Clone()
	c.Vals[0] = 99
	c.ColIdx[0] = 3
	if m.Vals[0] == 99 || m.ColIdx[0] == 3 {
		t.Error("Clone shares storage")
	}
	if !m.Equal(small3x4(t)) {
		t.Error("original mutated")
	}
}

func TestRowSlice(t *testing.T) {
	m := small3x4(t)
	s := m.RowSlice(1, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 2 || s.Cols != 4 || s.NNZ() != 3 {
		t.Fatalf("slice dims %dx%d nnz %d", s.Rows, s.Cols, s.NNZ())
	}
	if s.At(0, 3) != 3 || s.At(1, 0) != 4 {
		t.Fatal("slice contents wrong")
	}
	// Clamped and empty slices.
	if got := m.RowSlice(-5, 100); got.Rows != 3 {
		t.Fatalf("clamped slice rows = %d", got.Rows)
	}
	if got := m.RowSlice(2, 2); got.Rows != 0 || got.NNZ() != 0 {
		t.Fatalf("empty slice = %dx nnz %d", got.Rows, got.NNZ())
	}
	if got := m.RowSlice(3, 1); got.Rows != 0 {
		t.Fatalf("inverted slice rows = %d", got.Rows)
	}
}

func TestRowSliceIsolation(t *testing.T) {
	m := small3x4(t)
	s := m.RowSlice(0, 2)
	s.Vals[0] = 77
	if m.Vals[0] == 77 {
		t.Error("RowSlice shares value storage")
	}
}

func TestMMIORoundTripThroughCSR(t *testing.T) {
	m := small3x4(t)
	coo := m.ToCOO()
	var sb strings.Builder
	if err := mmio.Write(&sb, coo); err != nil {
		t.Fatal(err)
	}
	back, err := mmio.Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FromCOO(back)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(m2) {
		t.Error("CSR → mtx → CSR round trip differs")
	}
}

func TestEqual(t *testing.T) {
	a := small3x4(t)
	if !a.Equal(small3x4(t)) {
		t.Error("identical matrices not equal")
	}
	b := small3x4(t)
	b.Vals[2] = 9
	if a.Equal(b) {
		t.Error("different values compare equal")
	}
	c := a.RowSlice(0, 2)
	if a.Equal(c) {
		t.Error("different shapes compare equal")
	}
	p, _ := FromTriplets(3, 4, a.ColIdx[:0], a.ColIdx[:0], nil)
	if a.Equal(p) {
		t.Error("pattern vs valued compare equal")
	}
}

func TestRowNNZCounts(t *testing.T) {
	m := small3x4(t)
	counts := m.RowNNZCounts()
	want := []int{2, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestGenerateClasses(t *testing.T) {
	for _, class := range []Class{ClassUniform, ClassFEM, ClassPowerLaw, ClassRoad} {
		cfg := GenConfig{Class: class, Rows: 500, NNZ: 4000, Seed: 7}
		m, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%v: invalid: %v", class, err)
		}
		if m.Rows != 500 {
			t.Fatalf("%v: rows = %d", class, m.Rows)
		}
		if m.NNZ() == 0 {
			t.Fatalf("%v: empty matrix", class)
		}
		// All values must be in (0, 1].
		for _, v := range m.Vals {
			if v <= 0 || v > 1 {
				t.Fatalf("%v: value %v outside (0,1]", class, v)
			}
		}
	}
}

func TestGenerateNNZAccuracy(t *testing.T) {
	// Uniform and power-law generators hit the target NNZ within 20%.
	for _, class := range []Class{ClassUniform, ClassPowerLaw} {
		m, err := Generate(GenConfig{Class: class, Rows: 1000, NNZ: 10000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() < 8000 || m.NNZ() > 12000 {
			t.Errorf("%v: nnz = %d, want ~10000", class, m.NNZ())
		}
	}
}

func TestGeneratePowerLawIsSkewed(t *testing.T) {
	m, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: 2000, NNZ: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := m.RowNNZCounts()
	max, median := 0, 0
	sorted := append([]int(nil), counts...)
	for i := 1; i < len(sorted); i++ {
		v := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j] > v {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = v
	}
	median = sorted[len(sorted)/2]
	max = sorted[len(sorted)-1]
	if max < 10*median {
		t.Errorf("power-law matrix not skewed: max %d median %d", max, median)
	}
}

func TestGenerateFEMIsBanded(t *testing.T) {
	m, err := Generate(GenConfig{Class: ClassFEM, Rows: 1000, NNZ: 10000, BandwidthFrac: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	band := int(0.05*float64(m.Cols)) + 8
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		center := int(float64(i) / float64(m.Rows) * float64(m.Cols))
		for _, c := range cols {
			d := int(c) - center
			if d < 0 {
				d = -d
			}
			if d > band {
				t.Fatalf("row %d has entry %d, %d away from diagonal (band %d)", i, c, d, band)
			}
		}
	}
}

func TestGenerateRoadIsLowDegreeSymmetric(t *testing.T) {
	m, err := Generate(GenConfig{Class: ClassRoad, Rows: 2500, NNZ: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	counts := m.RowNNZCounts()
	maxDeg := 0
	for _, c := range counts {
		if c > maxDeg {
			maxDeg = c
		}
	}
	if maxDeg > 16 {
		t.Errorf("road network max degree = %d, want small", maxDeg)
	}
	// Structural symmetry: (i,j) stored implies (j,i) stored.
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, j := range cols {
			if m.At(int(j), i) == 0 {
				t.Fatalf("road matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{Class: ClassUniform, Rows: 0, NNZ: 5}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := Generate(GenConfig{Class: ClassUniform, Rows: 2, Cols: 2, NNZ: 10}); err == nil {
		t.Error("nnz > rows*cols accepted")
	}
	if _, err := Generate(GenConfig{Class: Class(99), Rows: 2, NNZ: 1}); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := GenConfig{Class: ClassPowerLaw, Rows: 300, NNZ: 3000, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different matrices")
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different seeds produced identical matrices")
	}
}

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 || d.At(0, 0) != 0 {
		t.Fatal("dense get/set broken")
	}
}
