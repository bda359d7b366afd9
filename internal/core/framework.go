// Package core implements the paper's contribution: a sampling-based
// framework for finding nearly balanced work partitions for
// heterogeneous algorithms.
//
// A heterogeneous algorithm partitions its input by a scalar threshold
// t (a percentage in [0, 100]) and processes the two pieces on the CPU
// and the GPU concurrently. Choosing t well is hard for irregular
// inputs; the framework estimates it in three steps:
//
//  1. Sample   — build a miniature instance I_s of the input by uniform
//     random sampling (workload-specific, see the Sampled interface).
//  2. Identify — run the heterogeneous algorithm on I_s over candidate
//     thresholds using a search strategy (exhaustive sweep,
//     coarse-to-fine, gradient descent, or a race-based coarse
//     estimate refined by a local sweep) and keep the best.
//  3. Extrapolate — map the sample-optimal threshold back to the full
//     input (identity for CC and unstructured SpMM; t_A = t_s² for
//     scale-free SpMM).
//
// The framework is generic over workloads: anything that can evaluate
// a threshold on its input and produce a sampled miniature of itself
// can be partitioned this way (see examples/custom for a user-defined
// workload).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/xrand"
)

// Workload is a heterogeneous algorithm instance whose work partition
// is controlled by a scalar threshold in [0, 100].
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Evaluate runs the heterogeneous algorithm with threshold t and
	// returns the simulated wall-clock time of the computation
	// (Phase II of the paper's algorithms; partitioning cost
	// included, estimation cost not).
	//
	// Evaluate must be safe for concurrent use: parallel searches
	// (WithParallelism / Config.Parallelism) call it from multiple
	// goroutines on the same receiver. Implementations should treat
	// the workload's input as immutable and keep any scratch state
	// local to the call, as the in-tree workloads do.
	Evaluate(t float64) (time.Duration, error)
}

// Sampled is a workload that supports the sampling framework.
type Sampled interface {
	Workload
	// Sample builds the miniature instance using the provided
	// generator and returns a Workload over the sample along with
	// the simulated cost of constructing the sample. The context
	// carries observability state (internal/obs): implementations may
	// open child spans under the framework's "sample" stage span to
	// expose workload-specific sampling phases.
	Sample(ctx context.Context, r *xrand.Rand) (Workload, time.Duration, error)
	// Extrapolate maps the best threshold found on the sample to a
	// threshold for the full input.
	Extrapolate(tSample float64) float64
}

// Ranger is an optional interface for workloads whose threshold is not
// a percentage. CC and unstructured SpMM use [0, 100]; the scale-free
// SpMM threshold is a row-density count in [0, maxRowNNZ], and its
// sample's range is the (smaller) density range of the miniature.
// When a workload implements Ranger, searches use its range instead of
// the Config's.
type Ranger interface {
	ThresholdRange() (lo, hi float64)
}

// RaceEstimator is an optional interface for sampled workloads that
// support the paper's race-based coarse estimation (Section IV-A:
// "multiplying the sample matrices A' and B' on CPU and GPU
// independently in parallel and stop when either of them finishes; by
// observing the amount of work processed, we can roughly estimate the
// split percentage"). It returns the coarse threshold estimate and the
// simulated cost of the race.
type RaceEstimator interface {
	EstimateByRace() (float64, time.Duration, error)
}

// ErrNoEvaluations is returned when a search is configured so that it
// evaluates no thresholds.
var ErrNoEvaluations = errors.New("core: search evaluated no thresholds")

// EvalPoint is one (threshold, simulated time) observation.
type EvalPoint struct {
	T    float64
	Time time.Duration
}

// SearchResult is the outcome of an Identify search.
type SearchResult struct {
	// Best is the threshold with the minimum observed time.
	Best float64
	// BestTime is the simulated time at Best.
	BestTime time.Duration
	// Evals is the number of Evaluate calls made.
	Evals int
	// Cost is the total simulated time spent across all Evaluate
	// calls — on a sample this is the estimation overhead; on the
	// full input this is the (impractically large) exhaustive cost.
	Cost time.Duration
	// Curve holds every observation, in evaluation order.
	Curve []EvalPoint
}

// Searcher is an Identify strategy: it minimizes w.Evaluate over
// [lo, hi]. Cancellation or deadline expiry on ctx is observed between
// evaluations; a cancelled search returns ctx.Err().
type Searcher interface {
	Name() string
	Search(ctx context.Context, w Workload, lo, hi float64) (SearchResult, error)
}

// evalTracker memoizes Evaluate calls and accumulates search cost, so
// composite strategies do not double-charge repeated thresholds. The
// mutex makes the memo and bookkeeping goroutine-safe; parallel sweeps
// (see evalAll in parallel.go) evaluate concurrently but commit their
// observations in grid order, so the accumulated state is identical to
// a sequential sweep's.
type evalTracker struct {
	ctx context.Context
	w   Workload

	mu    sync.Mutex
	seen  map[int64]EvalPoint // keyed by rounded micropercent
	res   SearchResult
	first bool
	// curveBuf is the recycled backing array for res.Curve; result()
	// hands callers a copy so the buffer can be reused.
	curveBuf []EvalPoint
}

// trackerPool recycles trackers — and with them the memo map and the
// curve buffer — across searches. A search's bookkeeping would
// otherwise allocate more than the evaluations themselves (the
// workload hot paths are allocation-free), which is what the bench
// report's alloc-per-eval column tracks.
var trackerPool = sync.Pool{New: func() any {
	// Pre-size the memo and curve for a standard unit-step sweep
	// (101 grid points plus refinement windows).
	e := &evalTracker{seen: make(map[int64]EvalPoint, 128)}
	e.curveBuf = make([]EvalPoint, 0, 128)
	return e
}}

func newEvalTracker(ctx context.Context, w Workload) *evalTracker {
	e := trackerPool.Get().(*evalTracker)
	e.ctx, e.w = ctx, w
	e.first = true
	e.res = SearchResult{Curve: e.curveBuf[:0]}
	return e
}

// trackerRetainMax bounds what trackerPool keeps: a tracker whose
// search committed more evaluations is dropped instead of pooled. A Go
// map never shrinks and clearing one costs its capacity, so without the
// bound one long sweep (an Exhaustive over scale-free's [0, MaxDegree]
// range commits thousands) would leave a grown memo that every later
// search on that tracker clears again, however few points it visits.
const trackerRetainMax = 512

// release returns the tracker to the pool, or drops it when its search
// outgrew trackerRetainMax; it reports whether the tracker was pooled,
// for the retention test. Only result() calls it — error paths abandon
// the tracker to the garbage collector, which keeps the invariant that
// a pooled tracker is always clean.
func (e *evalTracker) release() bool {
	if len(e.seen) > trackerRetainMax {
		return false
	}
	clear(e.seen)
	e.curveBuf = e.res.Curve[:0]
	e.ctx, e.w = nil, nil
	e.res = SearchResult{}
	trackerPool.Put(e)
	return true
}

// key buckets a threshold at micropercent resolution. math.Round keeps
// the bucketing symmetric for negative thresholds (custom Ranger
// ranges may extend below zero) and the 1e6 scale separates
// sub-millipercent grids that a millipercent key would collapse.
func key(t float64) int64 { return int64(math.Round(t * 1e6)) }

// eval evaluates one threshold sequentially: memo check, Evaluate,
// commit. Parallel fan-out bypasses it (evaluateRaw + ordered commit).
func (e *evalTracker) eval(t float64) (time.Duration, error) {
	if err := e.ctx.Err(); err != nil {
		return 0, err
	}
	e.mu.Lock()
	if p, ok := e.seen[key(t)]; ok {
		e.mu.Unlock()
		return p.Time, nil
	}
	e.mu.Unlock()
	d, err := e.evaluateRaw(t)
	if err != nil {
		return 0, err
	}
	return e.commit(t, d), nil
}

// evaluateRaw performs the Evaluate call itself — no memo lookup, no
// bookkeeping — and notifies the context's EvalObserver around it. It
// is the only place searches call Workload.Evaluate, so the in-flight
// gauge counts sequential and parallel evaluations alike.
func (e *evalTracker) evaluateRaw(t float64) (time.Duration, error) {
	if err := e.ctx.Err(); err != nil {
		// Every evaluation is bracketed by this check, so a search whose
		// deadline (possibly propagated from a gateway budget) expires
		// overruns by at most the one evaluation already in flight.
		return 0, err
	}
	if o := evalObserverFrom(e.ctx); o != nil {
		o.EvalStarted()
		defer o.EvalDone()
	}
	d, err := e.w.Evaluate(t)
	if err != nil {
		return 0, fmt.Errorf("core: evaluating threshold %.3f: %w", t, err)
	}
	return d, nil
}

// commit records one observation into the memo and bookkeeping. It is
// idempotent per memo key, and the best-threshold update is a strict
// improvement test: among equal times the earliest-committed — i.e.
// lowest, since grids ascend — threshold wins, which is what makes
// sequential and parallel sweeps agree on ties.
func (e *evalTracker) commit(t float64, d time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.seen[key(t)]; ok {
		return p.Time
	}
	p := EvalPoint{T: t, Time: d}
	e.seen[key(t)] = p
	e.res.Evals++
	e.res.Cost += d
	e.res.Curve = append(e.res.Curve, p)
	if e.first || d < e.res.BestTime {
		e.res.Best, e.res.BestTime = t, d
		e.first = false
	}
	return d
}

// result finishes the search: it snapshots the bookkeeping (with a
// caller-owned copy of the curve, since the internal buffer is
// recycled) and releases the tracker. The tracker must not be used
// after result returns.
func (e *evalTracker) result() (SearchResult, error) {
	if e.res.Evals == 0 {
		return SearchResult{}, ErrNoEvaluations
	}
	res := e.res
	res.Curve = append(make([]EvalPoint, 0, len(e.res.Curve)), e.res.Curve...)
	e.release()
	return res, nil
}

// sweep evaluates the grid lo, lo+step, ..., hi — concurrently when the
// context allows (WithParallelism), always with sequential-identical
// results. Grid construction and the fan-out/merge engine live in
// parallel.go; the grid itself is built into a recycled arena so a
// sweep window costs no per-call grid allocation.
func sweep(e *evalTracker, lo, hi, step float64) error {
	a := arenaPool.Get().(*evalArena)
	defer arenaPool.Put(a)
	a.grid = appendGridPoints(a.grid, lo, hi, step)
	return e.evalWindow(a, a.grid)
}

// Exhaustive evaluates every threshold from lo to hi in steps of Step
// (default 1). This is the paper's baseline "best possible threshold
// obtained via an exhaustive search"; on full inputs it is the
// impractical gold standard the sampling framework is compared to.
type Exhaustive struct {
	Step float64
}

// Name implements Searcher.
func (s Exhaustive) Name() string { return fmt.Sprintf("exhaustive(step=%g)", s.step()) }

func (s Exhaustive) step() float64 {
	if s.Step <= 0 {
		return 1
	}
	return s.Step
}

// Search implements Searcher.
func (s Exhaustive) Search(ctx context.Context, w Workload, lo, hi float64) (SearchResult, error) {
	e := newEvalTracker(ctx, w)
	if err := sweep(e, lo, hi, s.step()); err != nil {
		return SearchResult{}, err
	}
	return e.result()
}

// CoarseToFine first sweeps [lo, hi] with stride 8 (the paper's
// choice: "we run with values of t' that differ by 8"), then sweeps a
// ±8 window around the coarse winner with stride 1.
type CoarseToFine struct{}

// Coarse-to-fine strides.
const (
	coarseStride = 8
	fineStride   = 1
)

// Name implements Searcher.
func (CoarseToFine) Name() string { return "coarse-to-fine(8→1)" }

// Search implements Searcher.
func (CoarseToFine) Search(ctx context.Context, w Workload, lo, hi float64) (SearchResult, error) {
	e := newEvalTracker(ctx, w)
	if err := sweep(e, lo, hi, coarseStride); err != nil {
		return SearchResult{}, err
	}
	center := e.res.Best
	fLo, fHi := center-coarseStride, center+coarseStride
	if fLo < lo {
		fLo = lo
	}
	if fHi > hi {
		fHi = hi
	}
	if err := sweep(e, fLo, fHi, fineStride); err != nil {
		return SearchResult{}, err
	}
	return e.result()
}

// GradientDescent performs discrete hill descent: starting from 0, or
// from the midpoint when 0 lies outside [lo, hi], it probes ±step and
// moves toward the lower time, halving the step (initially 16) when
// neither direction improves, until the step falls below 1. This is
// the Identify strategy the scale-free case study uses ("we use a
// gradient descent based approach to find the best threshold that
// works for A'").
type GradientDescent struct{}

// Name implements Searcher.
func (GradientDescent) Name() string { return "gradient-descent" }

// Search implements Searcher.
func (GradientDescent) Search(ctx context.Context, w Workload, lo, hi float64) (SearchResult, error) {
	e := newEvalTracker(ctx, w)
	cur := 0.0
	if cur < lo || cur > hi {
		cur = (lo + hi) / 2
	}
	step := 16.0
	curTime, err := e.eval(cur)
	if err != nil {
		return SearchResult{}, err
	}
	for step >= fineStride {
		// Clamp to the range rather than skipping: on step-shaped
		// landscapes the optimum often sits exactly at a range
		// endpoint, which a skipping probe would never visit.
		probes := make([]float64, 0, 2)
		for _, cand := range []float64{cur - step, cur + step} {
			if cand < lo {
				cand = lo
			}
			if cand > hi {
				cand = hi
			}
			if cand == cur {
				continue
			}
			probes = append(probes, cand)
		}
		// Both probes are independent of each other's outcome, so
		// evaluate them together (parallel when the context allows),
		// then replay the move decisions in probe order — the replay
		// hits the memo, so bookkeeping matches a sequential descent.
		if err := e.evalAll(probes); err != nil {
			return SearchResult{}, err
		}
		moved := false
		for _, cand := range probes {
			d, err := e.eval(cand)
			if err != nil {
				return SearchResult{}, err
			}
			if d < curTime {
				cur, curTime = cand, d
				moved = true
			}
		}
		if !moved {
			step /= 2
		}
	}
	return e.result()
}

// RaceThenFine asks the workload for a race-based coarse estimate
// (RaceEstimator), then sweeps a ±Window (default 10) neighborhood
// with stride 1. Workloads that do not implement RaceEstimator fall
// back to CoarseToFine.
type RaceThenFine struct {
	Window float64
}

// Name implements Searcher.
func (s RaceThenFine) Name() string { return "race-then-fine" }

func (s RaceThenFine) window() float64 {
	if s.Window <= 0 {
		return 10
	}
	return s.Window
}

// Search implements Searcher.
func (s RaceThenFine) Search(ctx context.Context, w Workload, lo, hi float64) (SearchResult, error) {
	re, ok := w.(RaceEstimator)
	if !ok {
		return CoarseToFine{}.Search(ctx, w, lo, hi)
	}
	guess, raceCost, err := re.EstimateByRace()
	if err != nil {
		return SearchResult{}, fmt.Errorf("core: race estimate: %w", err)
	}
	e := newEvalTracker(ctx, w)
	e.res.Cost += raceCost
	fLo, fHi := guess-s.window(), guess+s.window()
	if fLo < lo {
		fLo = lo
	}
	if fHi > hi {
		fHi = hi
	}
	if err := sweep(e, fLo, fHi, fineStride); err != nil {
		return SearchResult{}, err
	}
	return e.result()
}
