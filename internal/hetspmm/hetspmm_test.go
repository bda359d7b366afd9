package hetspmm

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func testMatrix(t *testing.T, class sparse.Class, n, nnz int, seed uint64) *sparse.CSR {
	t.Helper()
	m, err := sparse.Generate(sparse.GenConfig{Class: class, Rows: n, NNZ: nnz, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunProducesCorrectProduct(t *testing.T) {
	a := testMatrix(t, sparse.ClassUniform, 200, 2000, 1)
	want, _, err := sparse.SpMM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewAlgorithm(hetsim.Default())
	prof, err := NewProfile(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0, 10, 50, 90, 100} {
		res, err := alg.Run(prof, r)
		if err != nil {
			t.Fatalf("r=%v: %v", r, err)
		}
		if !res.C.Equal(want) {
			t.Errorf("r=%v: product differs from sequential SpMM", r)
		}
		if res.FlopsCPU+res.FlopsGPU != prof.TotalWork() {
			t.Errorf("r=%v: flops %d+%d != total %d", r, res.FlopsCPU, res.FlopsGPU, prof.TotalWork())
		}
	}
}

func TestRunSplitRespectsWorkShare(t *testing.T) {
	a := testMatrix(t, sparse.ClassPowerLaw, 500, 8000, 3)
	alg := NewAlgorithm(hetsim.Default())
	prof, err := NewProfile(a, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(prof, 30)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.FlopsCPU) / float64(prof.TotalWork())
	if math.Abs(frac-0.30) > 0.05 {
		t.Errorf("CPU work share = %v, want ~0.30", frac)
	}
}

func TestRunValidation(t *testing.T) {
	a := testMatrix(t, sparse.ClassUniform, 50, 200, 5)
	alg := NewAlgorithm(hetsim.Default())
	prof, err := NewProfile(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alg.Run(prof, -1); err == nil {
		t.Error("negative split accepted")
	}
	if _, err := alg.Run(prof, 101); err == nil {
		t.Error("split > 100 accepted")
	}
	if _, err := alg.SimTimeMulti(prof, core.Partition{200, -100}); err == nil {
		t.Error("SimTimeMulti with bad split accepted")
	}
}

func TestProfileTimeMatchesRun(t *testing.T) {
	// The prefix-profile fast path must charge exactly what the real
	// execution charges.
	for _, class := range []sparse.Class{sparse.ClassUniform, sparse.ClassPowerLaw, sparse.ClassFEM} {
		a := testMatrix(t, class, 300, 4000, 7)
		alg := NewAlgorithm(hetsim.Default())
		prof, err := NewProfile(a, a)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0.0; r <= 100; r += 12.5 {
			fast, err := alg.SimTimeMulti(prof, core.Partition{r, 100 - r})
			if err != nil {
				t.Fatal(err)
			}
			res, err := alg.Run(prof, r)
			if err != nil {
				t.Fatal(err)
			}
			if fast != res.Time {
				t.Errorf("%v r=%v: profile time %v != run time %v", class, r, fast, res.Time)
			}
		}
	}
}

func TestProfileSplitRow(t *testing.T) {
	a := testMatrix(t, sparse.ClassUniform, 100, 1000, 9)
	prof, err := NewProfile(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.SplitRow(0); got != 0 {
		t.Errorf("SplitRow(0) = %d", got)
	}
	if got := prof.SplitRow(100); got != a.Rows {
		t.Errorf("SplitRow(100) = %d", got)
	}
	mid := prof.SplitRow(50)
	frac := float64(prof.loadPrefix[mid]) / float64(prof.TotalWork())
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("SplitRow(50) prefix fraction = %v", frac)
	}
}

func TestRangeCV(t *testing.T) {
	a := testMatrix(t, sparse.ClassPowerLaw, 400, 6000, 11)
	prof, err := NewProfile(a, a)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-range CV must match a direct bucketed computation.
	var buckets []float64
	for b := 0; b+cvBucket <= a.Rows; b += cvBucket {
		var s float64
		for i := b; i < b+cvBucket; i++ {
			s += float64(prof.loadPrefix[i+1] - prof.loadPrefix[i])
		}
		buckets = append(buckets, s)
	}
	var sum float64
	for _, v := range buckets {
		sum += v
	}
	mean := sum / float64(len(buckets))
	var ss float64
	for _, v := range buckets {
		d := v - mean
		ss += d * d
	}
	want := math.Sqrt(ss/float64(len(buckets))) / mean
	got := prof.rangeCV(0, a.Rows)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("rangeCV = %v, want %v", got, want)
	}
	// Ranges shorter than two buckets carry no divergence signal.
	if prof.rangeCV(3, 4) != 0 {
		t.Error("single-row CV should be 0")
	}
	if prof.rangeCV(0, 2*cvBucket-1) != 0 {
		t.Error("sub-bucket range CV should be 0")
	}
	// A skewed distribution keeps a clearly higher bucketed CV than a
	// uniform one.
	u := testMatrix(t, sparse.ClassUniform, 400, 6000, 11)
	uprof, err := NewProfile(u, u)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 2*uprof.rangeCV(0, u.Rows) {
		t.Errorf("power-law bucketed CV %v not above uniform %v", got, uprof.rangeCV(0, u.Rows))
	}
}

func TestTimeLandscapeInterior(t *testing.T) {
	a := testMatrix(t, sparse.ClassUniform, 2000, 40000, 13)
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("uniform", a, alg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := w.Evaluate(0)
	t100, _ := w.Evaluate(100)
	if best.BestTime >= t0 || best.BestTime >= t100 {
		t.Errorf("no heterogeneous advantage: best %v at %v, extremes %v / %v",
			best.BestTime, best.Best, t0, t100)
	}
	if best.Best <= 0 || best.Best >= 100 {
		t.Errorf("degenerate optimum %v", best.Best)
	}
}

func TestWorkloadRejectsRectangular(t *testing.T) {
	m, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassUniform, Rows: 10, Cols: 20, NNZ: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkload("rect", m, NewAlgorithm(hetsim.Default())); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestSampleShapeAndCost(t *testing.T) {
	a := testMatrix(t, sparse.ClassUniform, 800, 12000, 15)
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("uniform", a, alg)
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
	if inner.prof.a.Rows != 200 {
		t.Errorf("sample rows = %d, want n/4 = 200", inner.prof.a.Rows)
	}
	// Sample evaluation must be much cheaper than full evaluation.
	sd, err := sw.Evaluate(50)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := w.Evaluate(50)
	if err != nil {
		t.Fatal(err)
	}
	if sd*4 >= fd {
		t.Errorf("sample eval %v not ≪ full eval %v", sd, fd)
	}
}

func TestSampleCustomDivisor(t *testing.T) {
	a := testMatrix(t, sparse.ClassUniform, 1000, 10000, 17)
	w, err := NewWorkload("u", a, NewAlgorithm(hetsim.Default()))
	if err != nil {
		t.Fatal(err)
	}
	w.SampleDivisor = 10
	sw, _, err := w.Sample(context.Background(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.(*Workload).prof.a.Rows; got != 100 {
		t.Errorf("sample rows = %d, want 100", got)
	}
}

func TestEstimateByRace(t *testing.T) {
	a := testMatrix(t, sparse.ClassUniform, 600, 9000, 19)
	w, err := NewWorkload("u", a, NewAlgorithm(hetsim.Default()))
	if err != nil {
		t.Fatal(err)
	}
	guess, cost, err := w.EstimateByRace()
	if err != nil {
		t.Fatal(err)
	}
	if guess < 0 || guess > 100 {
		t.Errorf("race guess = %v", guess)
	}
	if cost <= 0 {
		t.Error("race cost not positive")
	}
	// The race guess should be within shouting distance of the true
	// optimum (it is the coarse stage; ±15 is fine).
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(guess-best.Best) > 25 {
		t.Errorf("race guess %v far from optimum %v", guess, best.Best)
	}
}

func TestEndToEndEstimate(t *testing.T) {
	// The sampling pipeline with the paper's race-then-fine identify
	// must land near the exhaustive optimum with modest overhead.
	for _, class := range []sparse.Class{sparse.ClassUniform, sparse.ClassFEM} {
		a := testMatrix(t, class, 3000, 60000, 21)
		alg := NewAlgorithm(hetsim.Default())
		w, err := NewWorkload(class.String(), a, alg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := core.EstimateThreshold(context.Background(), w, core.Config{
			Searcher: core.RaceThenFine{},
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(est.Threshold - best.Best); diff > 20 {
			t.Errorf("%v: estimate %v vs exhaustive %v (diff %v)", class, est.Threshold, best.Best, diff)
		}
		estTime, err := w.Evaluate(est.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		if float64(estTime) > 1.4*float64(best.BestTime) {
			t.Errorf("%v: time at estimate %v vs best %v", class, estTime, best.BestTime)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := testMatrix(t, sparse.ClassPowerLaw, 1000, 15000, 23)
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("p", a, alg)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := core.EstimateThreshold(context.Background(), w, core.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.EstimateThreshold(context.Background(), w, core.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Threshold != e2.Threshold {
		t.Error("estimates differ for same seed")
	}
}
