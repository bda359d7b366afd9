package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// pipeline is one Sample → Identify → Extrapolate instance, as
// EstimateThreshold and EstimatePartition hand it to runEstimate. S is
// the sampled workload a repeat searches and B its best answer (a
// threshold or a partition); everything else — the per-repeat RNG
// streams, the repeat pool, the stage spans and the cost sums — is
// shared, which is what keeps the two pipelines bit-identical on two
// devices.
type pipeline[S, B any] struct {
	// workload and searcher name the run on the "pipeline" span;
	// devices, when non-zero, is recorded there too.
	workload, searcher string
	devices            int
	// lo, hi is the full-input search range; an empty one fails the
	// pipeline before any repeat runs.
	lo, hi float64
	// sample builds one repeat's miniature from its private generator.
	sample func(context.Context, *xrand.Rand) (S, time.Duration, error)
	// identify searches a sample and returns its best answer with the
	// search's evaluation count and simulated cost.
	identify func(context.Context, S) (best B, evals int, cost time.Duration, err error)
	// show renders a best answer for the "identify" span.
	show func(B) string
	// extrapolate combines the repeats' bests, in repeat order, into
	// the full-input answer under the "extrapolate" span.
	extrapolate func(span *obs.Span, bests []B) error
}

// repeatTotals are a pipeline's simulated costs and evaluation count,
// summed over its repeats in repeat order.
type repeatTotals struct {
	sampleCost, identifyCost time.Duration
	evals                    int
}

// repeatOut is one repeat's generator and, once it ran, its outcome
// in the ordered merge.
type repeatOut[B any] struct {
	rng        *xrand.Rand
	sampleCost time.Duration
	identify   time.Duration
	evals      int
	best       B
	err        error
	done       bool
}

// runEstimate runs c.Repeats independent Sample+Identify repeats, then
// p.extrapolate, all under a "pipeline" span. The context bounds the
// whole run: cancellation is observed between repeats and, inside each
// search, between threshold evaluations. Repeats run concurrently when
// the context's parallelism allows; each still gets its own "sample"
// and "identify" spans under the shared parent.
func runEstimate[S, B any](ctx context.Context, c Config, p pipeline[S, B]) (tot repeatTotals, err error) {
	if c.Parallelism > 0 {
		ctx = WithParallelism(ctx, c.Parallelism)
	}
	ctx, pspan := obs.StartSpan(ctx, "pipeline")
	pspan.SetAttr("workload", p.workload)
	pspan.SetAttr("searcher", p.searcher)
	if p.devices > 0 {
		pspan.SetAttr("devices", strconv.Itoa(p.devices))
	}
	pspan.SetAttr("repeats", strconv.Itoa(c.Repeats))
	defer func() {
		pspan.RecordError(err)
		pspan.Finish()
	}()

	if p.lo >= p.hi {
		return tot, fmt.Errorf("core: threshold range [%g, %g] is empty", p.lo, p.hi)
	}
	// Split one RNG per repeat up front, in repeat order: the stream
	// handed to repeat i is the same whether the repeats then run
	// sequentially or on a worker pool, so seeding stays reproducible.
	r := xrand.New(c.Seed)
	outs := make([]repeatOut[B], c.Repeats)
	for i := range outs {
		outs[i].rng = r.Split()
	}

	par := ParallelismFromContext(ctx)
	workers := min(par, c.Repeats)
	repCtx := ctx
	if workers > 1 {
		// Divide the evaluation budget across the concurrent repeats so
		// total in-flight Evaluate calls stay bounded by par instead of
		// multiplying (each repeat's inner search parallelizes too).
		repCtx = WithParallelism(ctx, max(par/workers, 1))
	}
	run := &repeatRun[S, B]{pipeline: p, ctx: ctx, repCtx: repCtx, outs: outs}
	if workers <= 1 {
		run.work()
	} else {
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run.work()
			}()
		}
		wg.Wait()
	}

	// Merge in repeat order: done slots form a contiguous prefix (claims
	// ascend and claimed slots are always written), so the sums, the
	// order of bests feeding the combine step, and the first returned
	// error all match a sequential run exactly.
	bests := make([]B, c.Repeats)
	for i := range outs {
		o := &outs[i]
		if !o.done {
			if err := ctx.Err(); err != nil {
				return tot, err
			}
			return tot, fmt.Errorf("core: repeat %d did not run", i)
		}
		if o.err != nil {
			return tot, o.err
		}
		tot.sampleCost += o.sampleCost
		tot.identifyCost += o.identify
		tot.evals += o.evals
		bests[i] = o.best
	}
	_, espan := obs.StartSpan(ctx, "extrapolate")
	err = p.extrapolate(espan, bests)
	espan.RecordError(err)
	espan.Finish()
	return tot, err
}

// repeatRun is one pipeline run's repeat state, shared by its workers.
type repeatRun[S, B any] struct {
	pipeline[S, B]
	ctx, repCtx context.Context
	outs        []repeatOut[B]
	next        atomic.Int64
	stop        atomic.Bool
}

// work claims repeats in ascending order and runs them until none is
// left or one fails; a cancelled context fails the repeat it claims.
func (r *repeatRun[S, B]) work() {
	for !r.stop.Load() {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.outs) {
			return
		}
		if err := r.ctx.Err(); err != nil {
			r.outs[i] = repeatOut[B]{err: err, done: true}
			r.stop.Store(true)
			return
		}
		r.outs[i] = r.repeat(r.repCtx, r.outs[i].rng, i)
		if r.outs[i].err != nil {
			r.stop.Store(true)
			return
		}
	}
}

// repeat runs one Sample step and one Identify search, each under its
// stage span. rng is the repeat's pre-split generator.
func (p *pipeline[S, B]) repeat(ctx context.Context, rng *xrand.Rand, rep int) repeatOut[B] {
	sctx, span := obs.StartSpan(ctx, "sample")
	span.SetAttr("repeat", strconv.Itoa(rep))
	sw, sampleCost, err := p.sample(sctx, rng)
	if err != nil {
		err = fmt.Errorf("core: sampling %s: %w", p.workload, err)
		span.RecordError(err)
		span.Finish()
		return repeatOut[B]{err: err, done: true}
	}
	span.SetAttr("simulated_cost", sampleCost.String())
	span.Finish()

	ictx, span := obs.StartSpan(ctx, "identify")
	span.SetAttr("repeat", strconv.Itoa(rep))
	defer span.Finish()
	best, evals, cost, err := p.identify(ictx, sw)
	if err != nil {
		err = fmt.Errorf("core: identify on %s sample: %w", p.workload, err)
		span.RecordError(err)
		return repeatOut[B]{err: err, done: true}
	}
	span.SetAttr("evals", strconv.Itoa(evals))
	span.SetAttr("best", p.show(best))
	span.SetAttr("simulated_cost", cost.String())
	return repeatOut[B]{sampleCost: sampleCost, identify: cost, evals: evals, best: best, done: true}
}
