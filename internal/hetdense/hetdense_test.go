package hetdense

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

func TestRunValidation(t *testing.T) {
	alg := NewAlgorithm(hetsim.Default())
	if _, err := alg.SimTime(4, 4, 4, -2); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := alg.SimTime(0, 4, 4, 50); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := alg.SimTime(4, 4, 4, 101); err == nil {
		t.Error("threshold > 100 accepted")
	}
	if _, err := NewWorkload("x", 0, alg); err == nil {
		t.Error("n=0 workload accepted")
	}
}

func TestOptimumNearFLOPSRatio(t *testing.T) {
	// The regular-workload claim of Fig. 1: for dense MM, the best
	// threshold is close to the static FLOPS-ratio split.
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("mat.2k", 2048, alg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	static := alg.Platform.StaticShares()[0]
	if math.Abs(best.Best-static) > 12 {
		t.Errorf("dense optimum %v far from FLOPS split %v", best.Best, static)
	}
}

func TestSamplingAgreesOnRegularWork(t *testing.T) {
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("mat.4k", 4096, alg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateThreshold(context.Background(), w, core.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.Threshold - best.Best); diff > 6 {
		t.Errorf("estimate %v vs best %v (diff %v)", est.Threshold, best.Best, diff)
	}
}

func TestSampleQuartersDimension(t *testing.T) {
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("m", 1000, alg)
	if err != nil {
		t.Fatal(err)
	}
	sw, cost, err := w.Sample(context.Background(), xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if sw.(*Workload).n != 250 {
		t.Errorf("sample n = %d", sw.(*Workload).n)
	}
	if cost <= 0 {
		t.Error("sample cost not positive")
	}
}

func TestGPUWinsBulkOfDenseWork(t *testing.T) {
	// On regular work the GPU side must carry most rows at the
	// optimum (the paper: GPU gets ~88%).
	alg := NewAlgorithm(hetsim.Default())
	w, err := NewWorkload("m", 2048, alg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if best.Best > 40 {
		t.Errorf("CPU share at optimum = %v%%, expected minority", best.Best)
	}
}
