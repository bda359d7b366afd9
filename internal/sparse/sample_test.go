package sparse

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestUniformSubmatrixShape(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassUniform, Rows: 400, Cols: 400, NNZ: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	s, err := UniformSubmatrix(r, a, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows != 100 || s.Cols != 100 {
		t.Fatalf("sample dims %dx%d", s.Rows, s.Cols)
	}
	// Expected survival rate of an entry is (100/400)*(100/400) per
	// dimension on columns only (rows are chosen, then each entry
	// survives if its column is chosen): nnz' ≈ nnz * (100/400) rows
	// coverage * (100/400) column survival = 8000/16 = 500.
	if s.NNZ() < 250 || s.NNZ() > 1000 {
		t.Errorf("sample nnz = %d, want ≈500", s.NNZ())
	}
}

func TestUniformSubmatrixClampsAndErrors(t *testing.T) {
	a, _ := Generate(GenConfig{Class: ClassUniform, Rows: 10, Cols: 10, NNZ: 30, Seed: 1})
	r := xrand.New(1)
	s, err := UniformSubmatrix(r, a, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 10 || s.Cols != 10 {
		t.Fatalf("clamped dims %dx%d", s.Rows, s.Cols)
	}
	if _, err := UniformSubmatrix(r, a, 0, 5); err == nil {
		t.Error("zero sample rows accepted")
	}
	if _, err := UniformSubmatrix(r, a, 5, -1); err == nil {
		t.Error("negative sample cols accepted")
	}
}

func TestUniformSubmatrixPreservesCV(t *testing.T) {
	// The key statistical property: the coefficient of variation of
	// row work, which drives the GPU irregularity penalty, must be
	// approximately preserved by uniform sampling (in expectation).
	a, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: 4000, Cols: 4000, NNZ: 80000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fullCV := stats.CVInts(a.RowNNZCounts())
	r := xrand.New(4)
	cvs := make([]float64, 0, 10)
	for trial := 0; trial < 10; trial++ {
		s, err := UniformSubmatrix(r, a, 1000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		cvs = append(cvs, stats.CVInts(s.RowNNZCounts()))
	}
	meanCV := stats.Mean(cvs)
	if math.Abs(meanCV-fullCV)/fullCV > 0.35 {
		t.Errorf("sample CV %.3f far from full CV %.3f", meanCV, fullCV)
	}
}

func TestUniformSubmatrixEntriesComeFromA(t *testing.T) {
	// Deterministic check on a tiny matrix: every sampled entry's
	// value must exist somewhere in A.
	a := small3x4(t)
	vals := map[float64]bool{}
	for _, v := range a.Vals {
		vals[v] = true
	}
	r := xrand.New(5)
	s, err := UniformSubmatrix(r, a, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Vals {
		if !vals[v] {
			t.Fatalf("sample value %v not in source", v)
		}
	}
}

func TestBlockSubmatrix(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassFEM, Rows: 200, Cols: 200, NNZ: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BlockSubmatrix(a, 0, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Rows != 50 || b.Cols != 50 {
		t.Fatalf("block dims %dx%d", b.Rows, b.Cols)
	}
	// Block content must match A exactly.
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if b.At(i, j) != a.At(i, j) {
				t.Fatalf("block(%d,%d) = %v, want %v", i, j, b.At(i, j), a.At(i, j))
			}
		}
	}
	// Offset block.
	b2, err := BlockSubmatrix(a, 100, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if b2.At(0, 0) != a.At(100, 100) {
		t.Fatal("offset block content wrong")
	}
	// Clipping at the edge.
	b3, err := BlockSubmatrix(a, 180, 180, 50)
	if err != nil {
		t.Fatal(err)
	}
	if b3.Rows != 20 || b3.Cols != 20 {
		t.Fatalf("clipped dims %dx%d", b3.Rows, b3.Cols)
	}
}

func TestBlockSubmatrixErrors(t *testing.T) {
	a := small3x4(t)
	if _, err := BlockSubmatrix(a, 0, 0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := BlockSubmatrix(a, 5, 0, 2); err == nil {
		t.Error("row offset out of range accepted")
	}
	if _, err := BlockSubmatrix(a, 0, -1, 2); err == nil {
		t.Error("negative col offset accepted")
	}
}

func TestBlockVsRandomBias(t *testing.T) {
	// The Fig. 7 phenomenon: on a banded FEM matrix, the leading
	// diagonal block has systematically different density than a
	// random sample of the same size.
	a, err := Generate(GenConfig{Class: ClassFEM, Rows: 2000, Cols: 2000, NNZ: 40000, BandwidthFrac: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	block, err := BlockSubmatrix(a, 0, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(8)
	rnd, err := UniformSubmatrix(r, a, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	// The diagonal block keeps nearly all entries of its rows (the
	// band is inside the block), the random sample keeps ~1/4 of the
	// entries of its rows. This factor-of-4 gap in retained work is
	// exactly the bias the paper demonstrates.
	if block.NNZ() < 2*rnd.NNZ() {
		t.Errorf("expected block bias: block nnz %d vs random nnz %d", block.NNZ(), rnd.NNZ())
	}
}

func TestScaleFreeRowSample(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: 10000, Cols: 10000, NNZ: 200000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(10)
	s, err := ScaleFreeRowSample(r, a, ScaleFreeSampleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := int(math.Sqrt(10000))
	if s.Rows != want || s.Cols != want {
		t.Fatalf("sample dims %dx%d, want %dx%d", s.Rows, s.Cols, want, want)
	}
}

func TestScaleFreeRowSampleDegreeScaling(t *testing.T) {
	// A row of degree d in A should appear with ≈ √d entries in the
	// sample (DegreeExponent = 0.5). Build a matrix where every row
	// has exactly degree 64, so sampled rows should have ≈ 8.
	const n, deg = 4096, 64
	rows := make([]int32, 0, n*deg)
	cols := make([]int32, 0, n*deg)
	rng := xrand.New(11)
	var subset xrand.Subset
	for i := 0; i < n; i++ {
		for _, c := range subset.Draw(rng, n, deg) {
			rows = append(rows, int32(i))
			cols = append(cols, int32(c))
		}
	}
	a, err := FromTriplets(n, n, rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScaleFreeRowSample(xrand.New(12), a, ScaleFreeSampleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	counts := s.RowNNZCounts()
	mean := 0.0
	for _, c := range counts {
		mean += float64(c)
	}
	mean /= float64(len(counts))
	if mean < 6.5 || mean > 8.5 {
		t.Errorf("sampled mean degree = %v, want ≈ 8 (=√64)", mean)
	}
}

func TestScaleFreeRowSampleCustomExponent(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: 2500, Cols: 2500, NNZ: 50000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Exponent 1.0 keeps full row degrees (capped by sample width).
	full, err := ScaleFreeRowSample(xrand.New(14), a, ScaleFreeSampleConfig{SampleRows: 50, DegreeExponent: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ScaleFreeRowSample(xrand.New(14), a, ScaleFreeSampleConfig{SampleRows: 50, DegreeExponent: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if full.NNZ() <= sq.NNZ() {
		t.Errorf("exponent 1.0 nnz %d should exceed exponent 0.5 nnz %d", full.NNZ(), sq.NNZ())
	}
	if _, err := ScaleFreeRowSample(xrand.New(1), a, ScaleFreeSampleConfig{DegreeExponent: 1.5}); err == nil {
		t.Error("exponent > 1 accepted")
	}
}

func TestScaleFreeRowSampleSmallInputs(t *testing.T) {
	a := small3x4(t)
	s, err := ScaleFreeRowSample(xrand.New(15), a, ScaleFreeSampleConfig{SampleRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 3 {
		t.Fatalf("clamped sample rows = %d", s.Rows)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplersDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Class: ClassPowerLaw, Rows: 1000, Cols: 1000, NNZ: 20000, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := UniformSubmatrix(xrand.New(77), a, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := UniformSubmatrix(xrand.New(77), a, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Error("UniformSubmatrix not deterministic for fixed seed")
	}
	f1, err := ScaleFreeRowSample(xrand.New(78), a, ScaleFreeSampleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ScaleFreeRowSample(xrand.New(78), a, ScaleFreeSampleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Equal(f2) {
		t.Error("ScaleFreeRowSample not deterministic for fixed seed")
	}
}

// uniformSubmatrixRef is UniformSubmatrix as it was before the pooled
// subset sampler, frozen as the bit-identity oracle: fresh draws, a
// dense column map, and an output grown by appending and sorted row
// by row.
func uniformSubmatrixRef(r *xrand.Rand, a *CSR, sampleRows, sampleCols int) *CSR {
	sampleRows, sampleCols = min(sampleRows, a.Rows), min(sampleCols, a.Cols)
	rows := new(xrand.Subset).Draw(r, a.Rows, sampleRows)
	cols := new(xrand.Subset).Draw(r, a.Cols, sampleCols)
	colMap := make([]int32, a.Cols)
	for i := range colMap {
		colMap[i] = -1
	}
	for newIdx, c := range cols {
		colMap[c] = int32(newIdx)
	}
	out := &CSR{Rows: len(rows), Cols: sampleCols, RowPtr: make([]int64, len(rows)+1)}
	var sorter rowSorter
	for outRow, i := range rows {
		aCols, aVals := a.Row(i)
		for k, c := range aCols {
			if nc := colMap[c]; nc >= 0 {
				out.ColIdx = append(out.ColIdx, nc)
				if a.Vals != nil {
					out.Vals = append(out.Vals, aVals[k])
				}
			}
		}
		hi := int64(len(out.ColIdx))
		sorter.sortRow(out.ColIdx, out.Vals, out.RowPtr[outRow], hi)
		out.RowPtr[outRow+1] = hi
	}
	return out
}

// scaleFreeRowSampleRef is ScaleFreeRowSample as it was before the
// pooled subset sampler (fresh draws per row, a map emptied by a
// delete loop, an output grown by appending), for a valid exponent.
func scaleFreeRowSampleRef(r *xrand.Rand, a *CSR, cfg ScaleFreeSampleConfig) *CSR {
	sr := cfg.SampleRows
	if sr <= 0 {
		sr = int(math.Sqrt(float64(a.Rows)))
	}
	sr = max(1, min(sr, a.Rows))
	exp := cfg.DegreeExponent
	if exp == 0 {
		exp = 0.5
	}
	rows := new(xrand.Subset).Draw(r, a.Rows, sr)
	out := &CSR{Rows: sr, Cols: sr, RowPtr: make([]int64, sr+1)}
	seen := make(map[int32]struct{}, 64)
	var sorter rowSorter
	for outRow, i := range rows {
		aCols, aVals := a.Row(i)
		d := len(aCols)
		keep := 0
		if d > 0 {
			keep = min(max(int(math.Round(math.Pow(float64(d), exp))), 1), sr, d)
		}
		for c := range seen {
			delete(seen, c)
		}
		for _, k := range new(xrand.Subset).Draw(r, d, keep) {
			nc := int32(r.Intn(sr))
			for tries := 0; tries < 4; tries++ {
				if _, dup := seen[nc]; !dup {
					break
				}
				nc = int32(r.Intn(sr))
			}
			if _, dup := seen[nc]; dup {
				continue
			}
			seen[nc] = struct{}{}
			out.ColIdx = append(out.ColIdx, nc)
			if a.Vals != nil {
				out.Vals = append(out.Vals, aVals[k])
			}
		}
		hi := int64(len(out.ColIdx))
		sorter.sortRow(out.ColIdx, out.Vals, out.RowPtr[outRow], hi)
		out.RowPtr[outRow+1] = hi
	}
	return out
}

// sameCSR reports the first field in which got differs from want,
// telling a nil slice from an empty one.
func sameCSR(got, want *CSR) error {
	switch {
	case got.Rows != want.Rows || got.Cols != want.Cols:
		return fmt.Errorf("dims %dx%d, reference %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return fmt.Errorf("RowPtr differs")
	case (got.ColIdx == nil) != (want.ColIdx == nil) || !slices.Equal(got.ColIdx, want.ColIdx):
		return fmt.Errorf("ColIdx %v (nil %v), reference nil %v", len(got.ColIdx), got.ColIdx == nil, want.ColIdx == nil)
	case (got.Vals == nil) != (want.Vals == nil) || !slices.Equal(got.Vals, want.Vals):
		return fmt.Errorf("Vals %v (nil %v), reference nil %v", len(got.Vals), got.Vals == nil, want.Vals == nil)
	}
	return nil
}

// TestSamplersMatchReference holds both pooled samplers to their
// frozen references, bit for bit, on valued and pattern matrices of
// several classes and shapes, including samples in which no entry
// survives (whose ColIdx and Vals stay nil). Four callers run at once
// and share the scratch pool, so a buffer one sample leaves dirty, or
// shares with another, changes a result (and -race sees the sharing).
func TestSamplersMatchReference(t *testing.T) {
	var inputs []*CSR
	for i, c := range []GenConfig{
		{Class: ClassFEM, Rows: 3000, Cols: 3000, NNZ: 40000},
		{Class: ClassPowerLaw, Rows: 2500, Cols: 2500, NNZ: 30000},
		{Class: ClassUniform, Rows: 700, Cols: 1900, NNZ: 9000},
		{Class: ClassUniform, Rows: 1900, Cols: 300, NNZ: 2000},
		{Class: ClassUniform, Rows: 400, Cols: 400, NNZ: 12},
	} {
		c.Seed = uint64(30 + i)
		m, err := Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		pattern := m.Clone()
		pattern.Vals = nil
		inputs = append(inputs, m, pattern)
	}
	empty, err := FromTriplets(50, 60, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, empty, small3x4(t))

	const callers = 4
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pick := xrand.New(uint64(500 + g))
			for trial := 0; trial < 60; trial++ {
				a := inputs[pick.Intn(len(inputs))]
				seed := pick.Uint64()
				rows, cols := 1+pick.Intn(a.Rows+10), 1+pick.Intn(a.Cols+10)
				if pick.Intn(2) == 0 { // the served n/4 × n/4 shape
					rows, cols = max(a.Rows/4, 1), max(a.Rows/4, 1)
				}
				got, err := UniformSubmatrix(xrand.New(seed), a, rows, cols)
				if err != nil {
					errs <- err
					return
				}
				if err := sameCSR(got, uniformSubmatrixRef(xrand.New(seed), a, rows, cols)); err != nil {
					errs <- fmt.Errorf("UniformSubmatrix %dx%d of %dx%d, seed %d: %v", rows, cols, a.Rows, a.Cols, seed, err)
					return
				}
				cfg := ScaleFreeSampleConfig{}
				if pick.Intn(2) == 0 {
					cfg = ScaleFreeSampleConfig{SampleRows: 1 + pick.Intn(a.Rows+5), DegreeExponent: pick.Float64()}
				}
				sf, err := ScaleFreeRowSample(xrand.New(seed), a, cfg)
				if err != nil {
					errs <- err
					return
				}
				if err := sameCSR(sf, scaleFreeRowSampleRef(xrand.New(seed), a, cfg)); err != nil {
					errs <- fmt.Errorf("ScaleFreeRowSample %+v of %dx%d, seed %d: %v", cfg, a.Rows, a.Cols, seed, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
