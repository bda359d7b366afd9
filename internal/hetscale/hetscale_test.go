package hetscale

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// approxEqual reports whether got and want agree elementwise within a
// relative tolerance, walking both structures row by row.
func approxEqual(got, want *sparse.CSR, tol float64) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("dims %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		wc, wv := want.Row(i)
		for k, c := range wc {
			g := got.At(i, int(c))
			if d := math.Abs(g - wv[k]); d > tol*(1+math.Abs(wv[k])) {
				return fmt.Errorf("entry (%d,%d) = %v, want %v", i, c, g, wv[k])
			}
		}
		gc, gv := got.Row(i)
		for k, c := range gc {
			if want.At(i, int(c)) == 0 && math.Abs(gv[k]) > tol {
				return fmt.Errorf("spurious entry (%d,%d) = %v", i, c, gv[k])
			}
		}
	}
	return nil
}

func scaleFree(t *testing.T, n, nnz int, seed uint64) *sparse.CSR {
	t.Helper()
	m, err := sparse.Generate(sparse.GenConfig{
		Class: sparse.ClassPowerLaw, Rows: n, NNZ: nnz,
		PowerLawExponent: 1.8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunProducesCorrectProduct runs HH-CPU on a valued matrix and on
// its pattern (nil Vals, implicit ones), as a structure-only read of an
// upload yields.
func TestRunProducesCorrectProduct(t *testing.T) {
	valued := scaleFree(t, 300, 4000, 1)
	pattern := &sparse.CSR{Rows: valued.Rows, Cols: valued.Cols, RowPtr: valued.RowPtr, ColIdx: valued.ColIdx}
	for _, a := range []*sparse.CSR{valued, pattern} {
		want, _, err := sparse.SpMM(a, a)
		if err != nil {
			t.Fatal(err)
		}
		alg := NewAlgorithm(hetsim.Default())
		prof, err := NewProfile(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range []float64{0, 1, 5, 20, float64(prof.MaxDegree())} {
			res, err := alg.Run(prof, th)
			if err != nil {
				t.Fatalf("t=%v: %v", th, err)
			}
			// The quadrant assembly sums partial products in a different
			// order than plain Gustavson, so compare with a tolerance.
			if err := approxEqual(res.C, want, 1e-9); err != nil {
				t.Errorf("t=%v: HH-CPU product differs from plain SpMM: %v", th, err)
			}
			if res.FlopsCPU+res.FlopsGPU != prof.TotalWork() {
				t.Errorf("t=%v: flops %d+%d != %d", th, res.FlopsCPU, res.FlopsGPU, prof.TotalWork())
			}
		}
	}
}

func TestDenseCountMonotone(t *testing.T) {
	a := scaleFree(t, 500, 6000, 3)
	prof, err := NewProfile(a)
	if err != nil {
		t.Fatal(err)
	}
	prev := a.Rows + 1
	for th := 0.0; th <= float64(prof.MaxDegree()); th++ {
		d := prof.denseCount(th)
		if d > prev {
			t.Fatalf("denseCount not non-increasing at t=%v", th)
		}
		prev = d
	}
	if prof.denseCount(0) != countRowsAbove(a, 0) {
		t.Errorf("denseCount(0) = %d, want %d", prof.denseCount(0), countRowsAbove(a, 0))
	}
	if prof.denseCount(float64(prof.MaxDegree())) != 0 {
		t.Error("denseCount(maxDegree) should be 0")
	}
}

func countRowsAbove(a *sparse.CSR, t int) int {
	n := 0
	for i := 0; i < a.Rows; i++ {
		if a.RowNNZ(i) > t {
			n++
		}
	}
	return n
}

func TestDenseRowsMatchThreshold(t *testing.T) {
	a := scaleFree(t, 400, 5000, 5)
	alg := NewAlgorithm(hetsim.Default())
	prof, err := NewProfile(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{2, 7, 15} {
		res, err := alg.Run(prof, th)
		if err != nil {
			t.Fatal(err)
		}
		if want := countRowsAbove(a, int(th)); res.DenseRows != want {
			t.Errorf("t=%v: dense rows = %d, want %d", th, res.DenseRows, want)
		}
	}
}

func TestProfileTimeMatchesRun(t *testing.T) {
	a := scaleFree(t, 300, 4000, 7)
	alg := NewAlgorithm(hetsim.Default())
	prof, err := NewProfile(a)
	if err != nil {
		t.Fatal(err)
	}
	for th := 0.0; th <= float64(prof.MaxDegree()); th += 5 {
		fast, err := alg.SimTime(prof, th)
		if err != nil {
			t.Fatal(err)
		}
		res, err := alg.Run(prof, th)
		if err != nil {
			t.Fatal(err)
		}
		if fast != res.Time {
			t.Errorf("t=%v: SimTime %v != Run time %v", th, fast, res.Time)
		}
	}
}

func TestValidation(t *testing.T) {
	a := scaleFree(t, 100, 800, 9)
	alg := NewAlgorithm(hetsim.Default())
	prof, err := NewProfile(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alg.Run(prof, -1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := alg.SimTime(prof, -0.5); err == nil {
		t.Error("SimTime negative threshold accepted")
	}
	rect, _ := sparse.Generate(sparse.GenConfig{Class: sparse.ClassUniform, Rows: 5, Cols: 9, NNZ: 10, Seed: 1})
	if _, err := NewProfile(rect); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestThresholdRange(t *testing.T) {
	a := scaleFree(t, 400, 5000, 11)
	w, err := NewWorkload("sf", a, NewAlgorithm(hetsim.Default()))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := w.ThresholdRange()
	if lo != 0 || int(hi) != w.prof.MaxDegree() {
		t.Errorf("range = [%v, %v]", lo, hi)
	}
}

func TestInteriorOptimum(t *testing.T) {
	a := scaleFree(t, 3000, 60000, 13)
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("sf", a, alg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := w.ThresholdRange()
	t0, _ := w.Evaluate(lo)
	tMax, _ := w.Evaluate(hi)
	if best.BestTime >= t0 || best.BestTime >= tMax {
		t.Errorf("no interior advantage: best %v at t=%v, extremes %v / %v",
			best.BestTime, best.Best, t0, tMax)
	}
}

func TestSampleScalesDegrees(t *testing.T) {
	a := scaleFree(t, 10000, 200000, 15)
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("sf", a, alg)
	if err != nil {
		t.Fatal(err)
	}
	sw, cost, err := w.Sample(context.Background(), xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("sample cost not positive")
	}
	inner := sw.(*Workload)
	if inner.prof.a.Rows != 100 {
		t.Errorf("sample rows = %d, want √10000 = 100", inner.prof.a.Rows)
	}
	// Sample max degree ≈ √(full max degree), up to which heavy rows
	// the 100-row sample happens to catch.
	fullMax := float64(w.prof.MaxDegree())
	sampleMax := float64(inner.prof.MaxDegree())
	if sampleMax > 3*math.Sqrt(fullMax) || sampleMax < math.Sqrt(fullMax)/4 {
		t.Errorf("sample max degree %v vs √full %v", sampleMax, math.Sqrt(fullMax))
	}
}

func TestExtrapolateSquares(t *testing.T) {
	w := &Workload{}
	// Midpoint of the preimage interval [7², 8²) = [49, 64) → 56.5.
	if got := w.Extrapolate(7); got != 56.5 {
		t.Errorf("Extrapolate(7) = %v, want 56.5", got)
	}
	if got := w.Extrapolate(-3); got != 0 {
		t.Errorf("Extrapolate(-3) = %v, want 0", got)
	}
	// The square relation must hold up to the half-step correction.
	for _, ts := range []float64{2, 5, 11} {
		got := w.Extrapolate(ts)
		if got < ts*ts || got >= (ts+1)*(ts+1) {
			t.Errorf("Extrapolate(%v) = %v outside [t², (t+1)²)", ts, got)
		}
	}
}

func TestEndToEndEstimate(t *testing.T) {
	a := scaleFree(t, 8000, 160000, 17)
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("sf", a, alg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateThreshold(context.Background(), w, core.Config{
		Searcher: core.GradientDescent{},
		Seed:     3,
		Repeats:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Density thresholds are compared by achieved time, since the
	// time landscape can be flat across a band of thresholds.
	estTime, err := w.Evaluate(est.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if float64(estTime) > 1.35*float64(best.BestTime) {
		t.Errorf("time at estimate %v (t=%v) vs best %v (t=%v)",
			estTime, est.Threshold, best.BestTime, best.Best)
	}
	// Overhead must be small relative to the exhaustive search cost.
	if est.Overhead() >= best.Cost/5 {
		t.Errorf("overhead %v not ≪ exhaustive cost %v", est.Overhead(), best.Cost)
	}
}

func TestFitExtrapolationRecoversSquare(t *testing.T) {
	alg := NewAlgorithm(hetsim.Default())
	var ws []*Workload
	// Training matrices with varied density and tail exponent, so the
	// sample optima span a range of values.
	cfgs := []sparse.GenConfig{
		{Class: sparse.ClassPowerLaw, Rows: 4000, NNZ: 4000 * 10, PowerLawExponent: 1.5, Seed: 20},
		{Class: sparse.ClassPowerLaw, Rows: 6000, NNZ: 6000 * 18, PowerLawExponent: 1.8, Seed: 21},
		{Class: sparse.ClassPowerLaw, Rows: 8000, NNZ: 8000 * 30, PowerLawExponent: 2.1, Seed: 22},
		{Class: sparse.ClassPowerLaw, Rows: 10000, NNZ: 10000 * 45, PowerLawExponent: 1.6, Seed: 23},
	}
	for _, cfg := range cfgs {
		a, err := sparse.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload("train", a, alg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	c, p, err := FitExtrapolation(ws, 31)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1.2 || p > 3.5 {
		t.Errorf("fitted exponent %v not ≈ 2 (c=%v)", p, c)
	}
	if _, _, err := FitExtrapolation(ws[:1], 1); err == nil {
		t.Error("single workload accepted")
	}
}
