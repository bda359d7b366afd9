package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// plateauWorkload has a stepped landscape full of exact ties:
// time(t) = base + quantum·floor(|t-opt| / width). Ties are the hard
// case for parallel determinism — the lowest threshold of the winning
// plateau must come out Best at any worker count. The optional delay
// makes evaluations slow enough that pool workers genuinely overlap.
type plateauWorkload struct {
	opt   float64
	width float64
	delay time.Duration
}

func (w *plateauWorkload) Name() string { return "plateau" }

func (w *plateauWorkload) Evaluate(t float64) (time.Duration, error) {
	if w.delay > 0 {
		time.Sleep(w.delay)
	}
	steps := math.Floor(math.Abs(t-w.opt) / w.width)
	return time.Second + time.Duration(steps)*10*time.Millisecond, nil
}

// racingPlateau adds a race estimate so RaceThenFine exercises its real
// path in the determinism suite.
type racingPlateau struct {
	plateauWorkload
	guess float64
}

func (w *racingPlateau) EstimateByRace() (float64, time.Duration, error) {
	return w.guess, 3 * time.Millisecond, nil
}

// TestParallelSearchDeterminism: for every searcher, Parallelism=1 and
// Parallelism=8 must return identical SearchResults — Best, BestTime,
// Evals, Cost, and Curve in grid order. Run with -race this also
// hammers the tracker's locking.
func TestParallelSearchDeterminism(t *testing.T) {
	searchers := []Searcher{
		Exhaustive{},
		Exhaustive{Step: 0.37},
		CoarseToFine{},
		GradientDescent{},
		RaceThenFine{},
	}
	for _, s := range searchers {
		for _, opt := range []float64{0, 41.5, 60, 100} {
			w := &racingPlateau{
				plateauWorkload: plateauWorkload{opt: opt, width: 7, delay: 50 * time.Microsecond},
				guess:           opt + 4,
			}
			seq, err := s.Search(WithParallelism(context.Background(), 1), w, 0, 100)
			if err != nil {
				t.Fatalf("%s sequential: %v", s.Name(), err)
			}
			par, err := s.Search(WithParallelism(context.Background(), 8), w, 0, 100)
			if err != nil {
				t.Fatalf("%s parallel: %v", s.Name(), err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s opt=%v: parallel result differs\nseq: %+v\npar: %+v", s.Name(), opt, seq, par)
			}
		}
	}
}

// TestParallelTieBreaking: among tied minima the lowest threshold wins,
// sequentially and in parallel.
func TestParallelTieBreaking(t *testing.T) {
	w := &plateauWorkload{opt: 50, width: 20} // [31, 69] all tie at the minimum
	for _, par := range []int{1, 8} {
		res, err := Exhaustive{}.Search(WithParallelism(context.Background(), par), w, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != 31 {
			t.Errorf("parallelism %d: best = %v, want 31 (lowest tied threshold)", par, res.Best)
		}
	}
}

// TestSweepExactEvalCounts: appendGridPoints appends the hi endpoint exactly
// once, guarded explicitly rather than by memoization, so the Evaluate
// call count is exact for awkward (lo, hi, step) combinations.
func TestSweepExactEvalCounts(t *testing.T) {
	cases := []struct {
		lo, hi, step float64
		want         int64
	}{
		{0, 100, 1, 101},      // step divides the range: no extra hi probe
		{0, 100, 7, 16},       // 15 grid points + the hi endpoint
		{0, 10, 2.5, 5},       // fractional step landing exactly on hi
		{0, 0.001, 0.0002, 6}, // sub-millipercent grid
		{5, 5, 1, 1},          // degenerate range: one evaluation, not two
		{0, 100, 200, 2},      // step larger than the range: lo and hi
	}
	for _, c := range cases {
		w := &countingWorkload{vWorkload: vWorkload{name: "count", opt: c.lo, base: time.Second, slope: time.Millisecond}}
		res, err := Exhaustive{Step: c.step}.Search(context.Background(), w, c.lo, c.hi)
		if err != nil {
			t.Fatalf("(%g,%g,%g): %v", c.lo, c.hi, c.step, err)
		}
		if got := w.calls.Load(); got != c.want {
			t.Errorf("(%g,%g,%g): %d Evaluate calls, want %d", c.lo, c.hi, c.step, got, c.want)
		}
		if int64(res.Evals) != c.want {
			t.Errorf("(%g,%g,%g): Evals = %d, want %d", c.lo, c.hi, c.step, res.Evals, c.want)
		}
	}
	// Empty range: no grid, no evaluations.
	w := &countingWorkload{vWorkload: vWorkload{name: "count", base: time.Second}}
	if _, err := (Exhaustive{}).Search(context.Background(), w, 10, 5); !errors.Is(err, ErrNoEvaluations) {
		t.Errorf("hi < lo: err = %v, want ErrNoEvaluations", err)
	}
	if got := w.calls.Load(); got != 0 {
		t.Errorf("hi < lo: %d Evaluate calls, want 0", got)
	}
}

func TestParallelismFromContext(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	if got := ParallelismFromContext(context.Background()); got != def {
		t.Errorf("default = %d, want GOMAXPROCS %d", got, def)
	}
	ctx := WithParallelism(context.Background(), 3)
	if got := ParallelismFromContext(ctx); got != 3 {
		t.Errorf("explicit = %d, want 3", got)
	}
	if got := ParallelismFromContext(WithParallelism(ctx, 0)); got != def {
		t.Errorf("reset = %d, want GOMAXPROCS %d", got, def)
	}
	if got := ParallelismFromContext(WithParallelism(ctx, -4)); got != def {
		t.Errorf("negative = %d, want GOMAXPROCS %d", got, def)
	}
}

// gaugeObserver tracks in-flight evaluations like the serve metrics do.
type gaugeObserver struct {
	started, done atomic.Int64
	cur, max      atomic.Int64
}

func (o *gaugeObserver) EvalStarted() {
	o.started.Add(1)
	c := o.cur.Add(1)
	for {
		m := o.max.Load()
		if c <= m || o.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (o *gaugeObserver) EvalDone() {
	o.done.Add(1)
	o.cur.Add(-1)
}

// TestEvalObserver: every Evaluate call is bracketed by exactly one
// EvalStarted/EvalDone pair, the gauge drains to zero, and concurrency
// never exceeds the configured parallelism.
func TestEvalObserver(t *testing.T) {
	for _, par := range []int{1, 4} {
		o := &gaugeObserver{}
		ctx := WithEvalObserver(WithParallelism(context.Background(), par), o)
		w := &plateauWorkload{opt: 50, width: 5, delay: 20 * time.Microsecond}
		res, err := Exhaustive{}.Search(ctx, w, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if s, d := o.started.Load(), o.done.Load(); s != d || s != int64(res.Evals) {
			t.Errorf("parallelism %d: started=%d done=%d evals=%d", par, s, d, res.Evals)
		}
		if c := o.cur.Load(); c != 0 {
			t.Errorf("parallelism %d: gauge did not drain: %d", par, c)
		}
		if m := o.max.Load(); m > int64(par) {
			t.Errorf("parallelism %d: %d evaluations in flight", par, m)
		}
	}
}

// TestParallelSweepCancellation: cancelling mid-sweep stops the pool
// with at most one in-flight evaluation per worker beyond the trigger.
func TestParallelSweepCancellation(t *testing.T) {
	const workers = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfter{n: 5, cancel: cancel}
	_, err := Exhaustive{}.Search(WithParallelism(ctx, workers), w, 0, 100)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := w.calls.Load(); n > 5+workers {
		t.Errorf("%d evaluations after cancellation (want <= %d)", n, 5+workers)
	}
}

// failAbove errors for thresholds above a limit, so a parallel sweep
// hits the failure mid-grid.
type failAbove struct {
	limit float64
}

func (w *failAbove) Name() string { return "fail-above" }

func (w *failAbove) Evaluate(t float64) (time.Duration, error) {
	if t > w.limit {
		return 0, errors.New("synthetic device failure")
	}
	return time.Second, nil
}

// TestParallelErrorDeterminism: sequential and parallel sweeps report
// the same (first-in-grid-order) failure.
func TestParallelErrorDeterminism(t *testing.T) {
	w := &failAbove{limit: 36.5}
	_, errSeq := Exhaustive{}.Search(WithParallelism(context.Background(), 1), w, 0, 100)
	_, errPar := Exhaustive{}.Search(WithParallelism(context.Background(), 8), w, 0, 100)
	if errSeq == nil || errPar == nil {
		t.Fatalf("errors not propagated: seq=%v par=%v", errSeq, errPar)
	}
	if errSeq.Error() != errPar.Error() {
		t.Errorf("error differs:\nseq: %v\npar: %v", errSeq, errPar)
	}
	if !strings.Contains(errPar.Error(), "37.000") {
		t.Errorf("parallel error should blame the first failing grid point 37: %v", errPar)
	}
}

// rngSampled consumes its per-repeat RNG while sampling, so repeat
// scheduling order would corrupt the estimate if the streams were not
// pre-split deterministically.
type rngSampled struct {
	plateauWorkload
}

func (w *rngSampled) Sample(ctx context.Context, r *xrand.Rand) (Workload, time.Duration, error) {
	// Shift the sample optimum by a seed-dependent jitter in [0, 4).
	jitter := r.Float64() * 4
	s := &plateauWorkload{opt: w.opt + jitter, width: w.width, delay: w.delay}
	return s, time.Millisecond, nil
}

func (w *rngSampled) Extrapolate(t float64) float64 { return t }

// TestParallelRepeatsDeterminism: concurrent Repeats must reproduce the
// sequential estimate exactly — same per-repeat RNG streams, same
// ordered accounting, same median.
func TestParallelRepeatsDeterminism(t *testing.T) {
	w := &rngSampled{plateauWorkload{opt: 40, width: 3, delay: 20 * time.Microsecond}}
	var ests []*Estimate
	for _, par := range []int{1, 8} {
		est, err := EstimateThreshold(context.Background(), w, Config{
			Seed:        11,
			Repeats:     5,
			Searcher:    Exhaustive{},
			Parallelism: par,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		ests = append(ests, est)
	}
	if !reflect.DeepEqual(ests[0], ests[1]) {
		t.Errorf("parallel repeats differ:\nseq: %+v\npar: %+v", ests[0], ests[1])
	}
}

// TestParallelRepeatsError: a failing sample surfaces from the worker
// pool just as it does sequentially.
func TestParallelRepeatsError(t *testing.T) {
	w := &sampledV{
		vWorkload: vWorkload{name: "toy", opt: 30, base: time.Second, slope: time.Millisecond},
		sampleErr: errors.New("sample broke"),
	}
	_, err := EstimateThreshold(context.Background(), w, Config{Seed: 1, Repeats: 4, Parallelism: 4})
	if err == nil || !strings.Contains(err.Error(), "sample broke") {
		t.Errorf("err = %v, want wrapped sample failure", err)
	}
}

// TestConfigParallelismOverridesContext: an explicit Config.Parallelism
// beats whatever the caller's context carries.
func TestConfigParallelismOverridesContext(t *testing.T) {
	o := &gaugeObserver{}
	ctx := WithEvalObserver(WithParallelism(context.Background(), 8), o)
	w := &rngSampled{plateauWorkload{opt: 40, width: 3, delay: 20 * time.Microsecond}}
	if _, err := EstimateThreshold(ctx, w, Config{Seed: 1, Parallelism: 1, Searcher: Exhaustive{}}); err != nil {
		t.Fatal(err)
	}
	if m := o.max.Load(); m > 1 {
		t.Errorf("Config.Parallelism=1 ignored: %d evaluations in flight", m)
	}
}

// failAtPoint fails at exactly one grid point, with a small
// point-dependent delay so worker interleavings vary between runs.
type failAtPoint struct {
	failT float64
	calls atomic.Int64
}

func (w *failAtPoint) Name() string { return "fail-at-point" }

func (w *failAtPoint) Evaluate(t float64) (time.Duration, error) {
	w.calls.Add(1)
	time.Sleep(time.Duration(int(t)%5) * 10 * time.Microsecond)
	if t == w.failT {
		return 0, errors.New("injected failure")
	}
	return time.Second + time.Duration(t)*time.Millisecond, nil
}

// TestParallelFailureAtEveryIndex closes the stop/claim ordering audit
// from the engine rewrite: whichever grid index fails — first, last, or
// anywhere between — the parallel sweep must blame exactly the same
// point as a sequential sweep, even though workers claim chunks, bail
// early on stop, and may abandon claimed indices (the ordered commit
// pass repairs such holes inline). The parallel sweep may evaluate
// speculative later points, but never more than the grid size — each
// index is claimed at most once and repair only fills true holes.
func TestParallelFailureAtEveryIndex(t *testing.T) {
	const hi = 40
	for fail := 0; fail <= hi; fail++ {
		seqW := &failAtPoint{failT: float64(fail)}
		_, errSeq := Exhaustive{}.Search(WithParallelism(context.Background(), 1), seqW, 0, hi)
		parW := &failAtPoint{failT: float64(fail)}
		_, errPar := Exhaustive{}.Search(WithParallelism(context.Background(), 8), parW, 0, hi)
		if errSeq == nil || errPar == nil {
			t.Fatalf("fail@%d: errors not propagated: seq=%v par=%v", fail, errSeq, errPar)
		}
		if errSeq.Error() != errPar.Error() {
			t.Errorf("fail@%d: parallel blames a different point\nseq: %v\npar: %v", fail, errSeq, errPar)
		}
		if n := parW.calls.Load(); n > hi+1 {
			t.Errorf("fail@%d: %d Evaluate calls for a %d-point grid", fail, n, hi+1)
		}
	}
}

// TestConcurrentSearchesSharedPool: many goroutines search through the
// shared persistent worker pool at once; every one must still match
// its own sequential run bit for bit. This exercises stale batch
// deliveries (a pool worker receiving a batch whose window already
// finished) and the join/leave participant accounting.
func TestConcurrentSearchesSharedPool(t *testing.T) {
	const searches = 12
	type outcome struct {
		seq, par SearchResult
		err      error
	}
	results := make([]outcome, searches)
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &plateauWorkload{opt: float64(i * 7 % 101), width: 3, delay: 20 * time.Microsecond}
			seq, err := Exhaustive{}.Search(WithParallelism(context.Background(), 1), w, 0, 100)
			if err != nil {
				results[i].err = err
				return
			}
			par, err := Exhaustive{}.Search(WithParallelism(context.Background(), 4), w, 0, 100)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].seq, results[i].par = seq, par
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("search %d: %v", i, r.err)
		}
		if !reflect.DeepEqual(r.seq, r.par) {
			t.Errorf("search %d: parallel result differs under shared pool\nseq: %+v\npar: %+v", i, r.seq, r.par)
		}
	}
}
