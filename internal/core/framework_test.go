package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// vWorkload is a synthetic workload whose time landscape is a V with
// its minimum at opt: time(t) = base + slope·|t-opt|. scale controls
// how expensive evaluations are (samples are cheaper than the full
// input).
type vWorkload struct {
	name  string
	opt   float64
	base  time.Duration
	slope time.Duration // per unit of |t-opt|
	fail  error         // if set, Evaluate returns this error
}

func (w *vWorkload) Name() string { return w.name }

func (w *vWorkload) Evaluate(t float64) (time.Duration, error) {
	if w.fail != nil {
		return 0, w.fail
	}
	return w.base + time.Duration(math.Abs(t-w.opt)*float64(w.slope)), nil
}

// sampledV wraps a vWorkload: its sample is a cheaper V whose optimum
// is shifted by sampleShift, and extrapolation adds extraShift.
type sampledV struct {
	vWorkload
	sampleShift float64
	extraShift  float64
	sampleErr   error
}

func (w *sampledV) Sample(ctx context.Context, r *xrand.Rand) (Workload, time.Duration, error) {
	if w.sampleErr != nil {
		return nil, 0, w.sampleErr
	}
	s := &vWorkload{
		name:  w.name + "-sample",
		opt:   w.opt + w.sampleShift,
		base:  w.base / 100,
		slope: w.slope / 100,
	}
	return s, time.Millisecond, nil
}

func (w *sampledV) Extrapolate(t float64) float64 { return t + w.extraShift }

func TestExhaustiveFindsMinimum(t *testing.T) {
	w := &vWorkload{name: "v", opt: 37, base: time.Second, slope: 10 * time.Millisecond}
	res, err := Exhaustive{}.Search(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 37 {
		t.Errorf("best = %v, want 37", res.Best)
	}
	if res.Evals != 101 {
		t.Errorf("evals = %d, want 101", res.Evals)
	}
	if res.BestTime != time.Second {
		t.Errorf("best time = %v", res.BestTime)
	}
	if res.Cost <= 101*time.Second-time.Second {
		t.Errorf("cost = %v, suspiciously small", res.Cost)
	}
	if len(res.Curve) != 101 {
		t.Errorf("curve has %d points", len(res.Curve))
	}
}

func TestExhaustiveCustomStep(t *testing.T) {
	w := &vWorkload{name: "v", opt: 40, base: time.Second, slope: time.Millisecond}
	res, err := Exhaustive{Step: 10}.Search(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 11 {
		t.Errorf("evals = %d, want 11", res.Evals)
	}
	if res.Best != 40 {
		t.Errorf("best = %v", res.Best)
	}
}

func TestCoarseToFineFindsMinimum(t *testing.T) {
	for _, opt := range []float64{0, 3, 13, 50, 87, 99, 100} {
		w := &vWorkload{name: "v", opt: opt, base: time.Second, slope: 10 * time.Millisecond}
		res, err := CoarseToFine{}.Search(context.Background(), w, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Best-opt) > 0.5 {
			t.Errorf("opt %v: best = %v", opt, res.Best)
		}
		// Far fewer evaluations than exhaustive.
		if res.Evals > 40 {
			t.Errorf("opt %v: %d evals, want < 40", opt, res.Evals)
		}
	}
}

func TestCoarseToFineNoDoubleCharge(t *testing.T) {
	// Thresholds revisited by the fine pass must not be re-evaluated.
	w := &vWorkload{name: "v", opt: 48, base: time.Second, slope: time.Millisecond}
	res, err := CoarseToFine{}.Search(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, p := range res.Curve {
		if seen[p.T] {
			t.Fatalf("threshold %v evaluated twice", p.T)
		}
		seen[p.T] = true
	}
}

func TestGradientDescentFindsMinimum(t *testing.T) {
	for _, opt := range []float64{5, 33, 50, 72, 95} {
		w := &vWorkload{name: "v", opt: opt, base: time.Second, slope: 10 * time.Millisecond}
		res, err := GradientDescent{}.Search(context.Background(), w, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Best-opt) > 1.0 {
			t.Errorf("opt %v: best = %v", opt, res.Best)
		}
		if res.Evals > 45 {
			t.Errorf("opt %v: %d evals", opt, res.Evals)
		}
	}
}

// TestGradientDescentStartPoint: the descent starts at 0 when 0 lies
// in the range and at the midpoint otherwise.
func TestGradientDescentStartPoint(t *testing.T) {
	w := &vWorkload{name: "v", opt: 90, base: time.Second, slope: 10 * time.Millisecond}
	for _, tc := range []struct{ lo, hi, start float64 }{{0, 100, 0}, {3, 100, 51.5}, {-20, 100, 0}} {
		res, err := GradientDescent{}.Search(context.Background(), w, tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		if res.Curve[0].T != tc.start {
			t.Errorf("[%g, %g]: first evaluation at %v, want %v", tc.lo, tc.hi, res.Curve[0].T, tc.start)
		}
		if math.Abs(res.Best-90) > 1.0 {
			t.Errorf("[%g, %g]: best = %v", tc.lo, tc.hi, res.Best)
		}
	}
}

type racingV struct {
	vWorkload
	raceGuess float64
	raceErr   error
}

func (w *racingV) EstimateByRace() (float64, time.Duration, error) {
	return w.raceGuess, 5 * time.Millisecond, w.raceErr
}

func TestRaceThenFine(t *testing.T) {
	w := &racingV{
		vWorkload: vWorkload{name: "v", opt: 62, base: time.Second, slope: 10 * time.Millisecond},
		raceGuess: 58, // coarse estimate within the window of the optimum
	}
	res, err := RaceThenFine{}.Search(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best-62) > 0.5 {
		t.Errorf("best = %v", res.Best)
	}
	// 21 fine evals, plus the race cost.
	if res.Evals > 22 {
		t.Errorf("evals = %d", res.Evals)
	}
	if res.Cost < 5*time.Millisecond {
		t.Error("race cost not charged")
	}
}

func TestRaceThenFineFallback(t *testing.T) {
	// Without RaceEstimator, falls back to coarse-to-fine.
	w := &vWorkload{name: "v", opt: 25, base: time.Second, slope: 10 * time.Millisecond}
	res, err := RaceThenFine{}.Search(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best-25) > 0.5 {
		t.Errorf("fallback best = %v", res.Best)
	}
}

func TestRaceThenFineRaceError(t *testing.T) {
	w := &racingV{
		vWorkload: vWorkload{name: "v", opt: 10, base: time.Second, slope: time.Millisecond},
		raceErr:   errors.New("boom"),
	}
	if _, err := (RaceThenFine{}).Search(context.Background(), w, 0, 100); err == nil {
		t.Error("race error swallowed")
	}
}

func TestSearchPropagatesEvaluateError(t *testing.T) {
	w := &vWorkload{name: "bad", fail: errors.New("device on fire")}
	for _, s := range []Searcher{Exhaustive{}, CoarseToFine{}, GradientDescent{}} {
		if _, err := s.Search(context.Background(), w, 0, 100); err == nil {
			t.Errorf("%s swallowed evaluate error", s.Name())
		}
	}
}

func TestSearcherNames(t *testing.T) {
	for _, s := range []Searcher{Exhaustive{}, CoarseToFine{}, GradientDescent{}, RaceThenFine{}} {
		if s.Name() == "" {
			t.Error("empty searcher name")
		}
	}
}

func TestEstimateThreshold(t *testing.T) {
	w := &sampledV{
		vWorkload:   vWorkload{name: "toy", opt: 42, base: time.Second, slope: 10 * time.Millisecond},
		sampleShift: 1.5, // the sample's landscape is slightly off
	}
	est, err := EstimateThreshold(context.Background(), w, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Threshold-43.5) > 1 {
		t.Errorf("estimated threshold = %v, want ~43.5", est.Threshold)
	}
	if est.SampleCost != time.Millisecond {
		t.Errorf("sample cost = %v", est.SampleCost)
	}
	if est.IdentifyCost <= 0 || est.Evals == 0 {
		t.Error("identify accounting missing")
	}
	if est.Overhead() != est.SampleCost+est.IdentifyCost {
		t.Error("Overhead() inconsistent")
	}
}

func TestEstimateThresholdExtrapolationClamped(t *testing.T) {
	w := &sampledV{
		vWorkload:  vWorkload{name: "toy", opt: 95, base: time.Second, slope: 10 * time.Millisecond},
		extraShift: 50, // extrapolation pushes beyond 100
	}
	est, err := EstimateThreshold(context.Background(), w, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if est.Threshold > 100 {
		t.Errorf("threshold %v not clamped", est.Threshold)
	}
}

func TestEstimateThresholdRepeats(t *testing.T) {
	w := &sampledV{
		vWorkload: vWorkload{name: "toy", opt: 30, base: time.Second, slope: 10 * time.Millisecond},
	}
	est, err := EstimateThreshold(context.Background(), w, Config{Seed: 3, Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	if est.Repeats != 5 {
		t.Errorf("repeats = %d", est.Repeats)
	}
	if est.SampleCost != 5*time.Millisecond {
		t.Errorf("sample cost = %v, want 5ms", est.SampleCost)
	}
	if math.Abs(est.Threshold-30) > 1 {
		t.Errorf("threshold = %v", est.Threshold)
	}
}

// emptyRangeV is a sampled workload whose own threshold range is
// empty.
type emptyRangeV struct{ sampledV }

func (w *emptyRangeV) ThresholdRange() (lo, hi float64) { return 50, 50 }

func TestEstimateThresholdErrors(t *testing.T) {
	empty := &emptyRangeV{sampledV{vWorkload: vWorkload{name: "toy", opt: 10}}}
	if _, err := EstimateThreshold(context.Background(), empty, Config{}); err == nil {
		t.Error("empty range accepted")
	}
	w := &sampledV{vWorkload: vWorkload{name: "toy", opt: 10}}
	w.sampleErr = errors.New("sample broke")
	if _, err := EstimateThreshold(context.Background(), w, Config{}); err == nil {
		t.Error("sample error swallowed")
	}
	w.sampleErr = nil
	w.fail = errors.New("eval broke") // full workload fails, sample is fine
	if _, err := EstimateThreshold(context.Background(), w, Config{}); err != nil {
		t.Errorf("full-input evaluate should not be called: %v", err)
	}
}

func TestEstimateThresholdDeterminism(t *testing.T) {
	w := &sampledV{vWorkload: vWorkload{name: "toy", opt: 64, base: time.Second, slope: time.Millisecond}}
	a, err := EstimateThreshold(context.Background(), w, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateThreshold(context.Background(), w, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Threshold != b.Threshold || a.Evals != b.Evals {
		t.Error("estimates not deterministic for fixed seed")
	}
}

func TestExhaustiveBest(t *testing.T) {
	w := &vWorkload{name: "v", opt: 77, base: time.Second, slope: 10 * time.Millisecond}
	res, err := ExhaustiveBest(context.Background(), w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 77 {
		t.Errorf("best = %v", res.Best)
	}
}

func TestNaiveAverage(t *testing.T) {
	if got := NaiveAverage([]float64{80, 90, 100}); got != 90 {
		t.Errorf("NaiveAverage = %v", got)
	}
	if got := NaiveAverage(nil); got != 0 {
		t.Errorf("NaiveAverage(nil) = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median single = %v", got)
	}
}

// --- Regression tests -------------------------------------------------

// TestExhaustiveFractionalStepIncludesHi: accumulating `t += step`
// drifts for fractional steps, so the old loop could finish on
// 99.9999999999... and report that as Best instead of the exact hi
// endpoint. The optimum sits at hi to make the drift observable.
func TestExhaustiveFractionalStepIncludesHi(t *testing.T) {
	w := &vWorkload{name: "v", opt: 100, base: time.Second, slope: 10 * time.Millisecond}
	res, err := Exhaustive{Step: 0.1}.Search(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 100 {
		t.Errorf("best = %v, want exactly 100", res.Best)
	}
	if res.BestTime != time.Second {
		t.Errorf("best time = %v, want 1s", res.BestTime)
	}
	// The grid itself must not drift: every curve point is an exact
	// multiple of 0.1 (up to the memo resolution).
	for _, p := range res.Curve {
		scaled := p.T * 10
		if math.Abs(scaled-math.Round(scaled)) > 1e-6 {
			t.Fatalf("grid point %v drifted off the 0.1 lattice", p.T)
		}
	}
}

// TestExhaustiveHiEndpointCoarseStep: hi must be evaluated even when
// the step does not divide the range.
func TestExhaustiveHiEndpointCoarseStep(t *testing.T) {
	w := &vWorkload{name: "v", opt: 100, base: time.Second, slope: 10 * time.Millisecond}
	res, err := Exhaustive{Step: 7}.Search(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 100 {
		t.Errorf("best = %v, want 100 (hi endpoint skipped)", res.Best)
	}
}

// TestEvalKeyResolution: the memo key must separate thresholds closer
// than a millipercent and round negative thresholds symmetrically
// (int64 truncation both merged and shifted them).
func TestEvalKeyResolution(t *testing.T) {
	if key(0.0001) == key(0.0004) {
		t.Error("sub-millipercent thresholds collide")
	}
	if key(-1.0) == key(-0.9995) {
		t.Error("nearby negative thresholds collide")
	}
	if key(-0.25) != -key(0.25) {
		t.Errorf("negative rounding asymmetric: key(-0.25)=%d, key(0.25)=%d", key(-0.25), key(0.25))
	}
	if key(-1.0) != -1_000_000 {
		t.Errorf("key(-1) = %d, want -1000000", key(-1.0))
	}
}

// TestTrackerRetention pins the pool-retention bound: a tracker whose
// search committed at most trackerRetainMax evaluations is pooled, one
// that committed more (an 8,001-point sweep, say) is dropped, so no
// later search clears a memo a long sweep grew.
func TestTrackerRetention(t *testing.T) {
	for _, c := range []struct {
		evals  int
		pooled bool
	}{{101, true}, {trackerRetainMax, true}, {trackerRetainMax + 1, false}, {8001, false}} {
		e := newEvalTracker(context.Background(), &vWorkload{})
		for i := range c.evals {
			e.commit(float64(i), time.Duration(i))
		}
		if got := e.release(); got != c.pooled {
			t.Errorf("%d evaluations: pooled = %v, want %v", c.evals, got, c.pooled)
		}
	}
}

// TestExhaustiveSubMillipercentGrid: with the old millipercent memo,
// a sweep at step 0.0002 collapsed to 2 distinct evaluations.
func TestExhaustiveSubMillipercentGrid(t *testing.T) {
	w := &vWorkload{name: "v", opt: 0.0006, base: time.Second, slope: time.Minute}
	res, err := Exhaustive{Step: 0.0002}.Search(context.Background(), w, 0, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 6 {
		t.Errorf("evals = %d, want 6 (memo collapsed the grid)", res.Evals)
	}
	if math.Abs(res.Best-0.0006) > 1e-9 {
		t.Errorf("best = %v, want 0.0006", res.Best)
	}
}

// countingWorkload counts Evaluate calls (for cancellation tests). The
// counter is atomic because parallel searches call Evaluate from
// multiple goroutines.
type countingWorkload struct {
	vWorkload
	calls atomic.Int64
}

func (w *countingWorkload) Evaluate(t float64) (time.Duration, error) {
	w.calls.Add(1)
	return w.vWorkload.Evaluate(t)
}

// TestSearchHonorsContext: every searcher must return promptly with
// the context error and perform no evaluations on a dead context.
func TestSearchHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Searcher{Exhaustive{}, CoarseToFine{}, GradientDescent{}, RaceThenFine{}} {
		w := &countingWorkload{vWorkload: vWorkload{name: "v", opt: 50, base: time.Second, slope: time.Millisecond}}
		_, err := s.Search(ctx, w, 0, 100)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", s.Name(), err)
		}
		if n := w.calls.Load(); n != 0 {
			t.Errorf("%s: %d evaluations on a cancelled context", s.Name(), n)
		}
	}
}

func TestEstimateThresholdHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := &sampledV{vWorkload: vWorkload{name: "toy", opt: 30, base: time.Second, slope: time.Millisecond}}
	if _, err := EstimateThreshold(ctx, w, Config{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSearchDeadlineMidway: a deadline expiring during the sweep stops
// the search with DeadlineExceeded rather than running to completion.
// Parallelism is pinned to 1 because the "at most one straggler" bound
// is a sequential property; the parallel analogue (bounded in-flight
// overshoot) lives in TestParallelSweepCancellation.
func TestSearchDeadlineMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = WithParallelism(ctx, 1)
	w := &cancelAfter{n: 5, cancel: cancel}
	_, err := Exhaustive{}.Search(ctx, w, 0, 100)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := w.calls.Load(); n > 6 {
		t.Errorf("search kept evaluating after cancellation: %d calls", n)
	}
}

// cancelAfter cancels its context after n evaluations.
type cancelAfter struct {
	n      int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (w *cancelAfter) Name() string { return "cancel-after" }

func (w *cancelAfter) Evaluate(t float64) (time.Duration, error) {
	if w.calls.Add(1) >= w.n {
		w.cancel()
	}
	return time.Second, nil
}
