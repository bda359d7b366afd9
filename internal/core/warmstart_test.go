package core

import (
	"context"
	"math"
	"testing"
	"time"
)

// invSampledV is a sampledV whose extrapolation doubles the sample
// threshold, with the matching inverse.
type invSampledV struct {
	sampledV
}

func (w *invSampledV) Extrapolate(t float64) float64        { return 2 * t }
func (w *invSampledV) InverseExtrapolate(t float64) float64 { return t / 2 }

func TestWarmStartMatchesColdEstimateWithFewerEvals(t *testing.T) {
	mk := func() *sampledV {
		return &sampledV{vWorkload: vWorkload{
			name: "v", opt: 37, base: time.Second, slope: 10 * time.Millisecond,
		}}
	}
	cold, err := EstimateThreshold(context.Background(), mk(), Config{Searcher: Exhaustive{}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := EstimateThreshold(context.Background(), mk(), Config{
		Searcher:  Exhaustive{},
		WarmStart: &WarmStart{Threshold: 39},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Threshold != cold.Threshold {
		t.Errorf("warm threshold %v != cold %v", warm.Threshold, cold.Threshold)
	}
	if warm.Evals >= cold.Evals/5 {
		t.Errorf("warm evals %d not well below cold %d", warm.Evals, cold.Evals)
	}
}

func TestWarmStartWindowOutsideRangeFallsBack(t *testing.T) {
	w := &sampledV{vWorkload: vWorkload{
		name: "v", opt: 37, base: time.Second, slope: 10 * time.Millisecond,
	}}
	// Seed far outside [0, 100]: the narrowed window is empty, so the
	// search must fall back to the full range and still find the
	// optimum.
	est, err := EstimateThreshold(context.Background(), w, Config{
		Searcher:  Exhaustive{},
		WarmStart: &WarmStart{Threshold: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Threshold != 37 {
		t.Errorf("fallback threshold = %v, want 37", est.Threshold)
	}
}

func TestWarmStartUsesInverseExtrapolation(t *testing.T) {
	// Sample optimum 37, Extrapolate doubles → full threshold 74.
	// Transferring 74 back must search near 37, not near 74.
	w := &invSampledV{sampledV{vWorkload: vWorkload{
		name: "v", opt: 37, base: time.Second, slope: 10 * time.Millisecond,
	}}}
	est, err := EstimateThreshold(context.Background(), w, Config{
		Searcher:  Exhaustive{},
		WarmStart: &WarmStart{Threshold: 74},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Threshold != 74 {
		t.Errorf("threshold = %v, want 74", est.Threshold)
	}
	// Window [29, 45]: exhaustive unit stride = 17 evals per repeat.
	if est.Evals != 17 {
		t.Errorf("evals = %d, want 17 (window [29, 45])", est.Evals)
	}
}

func TestWarmWindowGeometry(t *testing.T) {
	w := &sampledV{vWorkload: vWorkload{name: "v"}}
	cases := []struct {
		ws             WarmStart
		lo, hi         float64
		wantLo, wantHi float64
	}{
		// Interior seed: symmetric window of DefaultWarmWindow (8).
		{WarmStart{Threshold: 50}, 0, 100, 42, 58},
		// Seed near the edge: clamped, not shifted.
		{WarmStart{Threshold: 2}, 0, 100, 0, 10},
		{WarmStart{Threshold: 99}, 0, 100, 91, 100},
		// Window entirely outside the range: full-range fallback.
		{WarmStart{Threshold: -20}, 0, 100, 0, 100},
		{WarmStart{Threshold: 200}, 0, 100, 0, 100},
	}
	for _, c := range cases {
		lo, hi := warmWindow(w, &c.ws, c.lo, c.hi)
		if math.Abs(lo-c.wantLo) > 1e-12 || math.Abs(hi-c.wantHi) > 1e-12 {
			t.Errorf("warmWindow(%+v, [%g, %g]) = [%g, %g], want [%g, %g]",
				c.ws, c.lo, c.hi, lo, hi, c.wantLo, c.wantHi)
		}
	}
}
