package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Threshold evaluations are pure functions of (workload, threshold), so
// an Identify sweep is embarrassingly parallel: the grid points can be
// evaluated by a bounded worker pool and merged back in grid order,
// reproducing the sequential bookkeeping bit for bit. This file holds
// the concurrency plumbing — the parallelism option, the in-flight
// evaluation observer, and the fan-out/merge engine used by sweep and
// GradientDescent's probe pairs.

type parallelismCtxKey struct{}

// WithParallelism returns a context that bounds concurrent Evaluate
// calls inside searches to n. n <= 0 resets to the default
// (runtime.GOMAXPROCS(0)); n == 1 forces today's sequential behavior.
//
// Parallelism never changes a SearchResult: grid points are merged in
// grid order and ties broken exactly as a sequential sweep would break
// them (strict improvement, so the lowest threshold of a tie wins), so
// sequential and parallel runs are bit-identical. Only wall-clock time
// changes — the simulated Cost accounting stays serial.
func WithParallelism(ctx context.Context, n int) context.Context {
	if n <= 0 {
		n = 0
	}
	return context.WithValue(ctx, parallelismCtxKey{}, n)
}

// ParallelismFromContext returns the context's evaluation parallelism
// bound, defaulting to runtime.GOMAXPROCS(0) when absent or reset.
func ParallelismFromContext(ctx context.Context) int {
	if n, ok := ctx.Value(parallelismCtxKey{}).(int); ok && n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// EvalObserver is notified around every Workload.Evaluate call a search
// makes, from whichever goroutine performs the call. Implementations
// must be safe for concurrent use; the serving stack uses one to export
// an in-flight evaluation gauge.
type EvalObserver interface {
	EvalStarted()
	EvalDone()
}

type evalObserverCtxKey struct{}

// WithEvalObserver returns a context whose searches report each
// Evaluate call to o.
func WithEvalObserver(ctx context.Context, o EvalObserver) context.Context {
	return context.WithValue(ctx, evalObserverCtxKey{}, o)
}

func evalObserverFrom(ctx context.Context) EvalObserver {
	o, _ := ctx.Value(evalObserverCtxKey{}).(EvalObserver)
	return o
}

// appendGridPoints materializes the sweep grid lo, lo+step, ..., hi
// into dst (reusing its capacity). The grid is integer-indexed rather
// than accumulated (t += step drifts: 0.1 has no exact binary
// representation, so a thousand additions can overshoot hi and
// silently drop the final — often optimal — endpoint). The hi endpoint
// is appended exactly once: only when the last interior point did not
// already land on it (at memo-key resolution), so eval counts are
// exact rather than relying on memoization to absorb a duplicate.
func appendGridPoints(dst []float64, lo, hi, step float64) []float64 {
	pts := dst[:0]
	if hi < lo {
		return pts
	}
	n := int(math.Floor((hi-lo)/step + 1e-9))
	last := int64(0)
	for i := 0; i <= n; i++ {
		t := lo + float64(i)*step
		if t > hi {
			t = hi // guard the epsilon in n against overshooting
		}
		if k := key(t); len(pts) == 0 || k != last {
			pts = append(pts, t)
			last = k
		}
	}
	if len(pts) == 0 || last != key(hi) {
		pts = append(pts, hi)
	}
	return pts
}

// evalSlot is one grid point's pending observation inside a batch.
type evalSlot struct {
	d    time.Duration
	err  error
	done bool
}

// evalBatch is one parallel fan-out over a window of fresh grid
// points. The submitting goroutine always works the batch itself, so a
// sweep makes progress even if no pool worker ever arrives; pool
// workers that do arrive register through join, bounded by limit so
// the window never exceeds its parallelism budget.
//
// Batches are recycled (see evalArena), so a pool worker can receive a
// pointer to a batch whose run already finished — or that has since
// been reset for a newer window. The workers counter disambiguates:
// the submitter resets all plain fields first and then stores
// workers=1, and join admits only while workers > 0, so a successful
// join happens-after the reset and simply helps whichever window is
// current; a stale delivery for a finished window sees workers == 0
// and is dropped.
type evalBatch struct {
	tr    *evalTracker
	pts   []float64
	slots []evalSlot
	chunk int64
	// limit is atomic, unlike the plain fields: join reads it before
	// the CAS that would order it after the reset, so a stale join can
	// read it while the next window's submitter stores it.
	limit atomic.Int64
	next  atomic.Int64
	stop  atomic.Bool
	// workers counts active participants (submitter + joined pool
	// workers); the participant that drops it to zero sends the one
	// completion token the submitter waits for.
	workers atomic.Int64
	doneCh  chan struct{}
}

// join registers a pool worker with the batch. It refuses when the
// batch already finished (workers == 0) or is fully staffed.
func (b *evalBatch) join() bool {
	for {
		n := b.workers.Load()
		if n == 0 || n >= b.limit.Load() {
			return false
		}
		if b.workers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// leave deregisters a participant; the last one out signals the
// submitter. The token channel is buffered and the zero-crossing is
// unique per run (join refuses once workers hits 0), so the send never
// blocks.
func (b *evalBatch) leave() {
	if b.workers.Add(-1) == 0 {
		b.doneCh <- struct{}{}
	}
}

// run claims chunks of ascending grid indices and evaluates them until
// the batch drains or stops. Every claimed-and-evaluated index is
// recorded in its slot; indices of a chunk abandoned on stop are
// repaired by the ordered commit pass.
func (b *evalBatch) run() {
	for {
		if b.stop.Load() {
			return
		}
		end := b.next.Add(b.chunk)
		base := end - b.chunk
		if base >= int64(len(b.pts)) {
			return
		}
		if end > int64(len(b.pts)) {
			end = int64(len(b.pts))
		}
		for i := base; i < end; i++ {
			if b.stop.Load() {
				return // abandon the chunk's tail; commit repairs the hole
			}
			if err := b.tr.ctx.Err(); err != nil {
				b.slots[i] = evalSlot{err: err, done: true}
				b.stop.Store(true)
				return
			}
			d, err := b.tr.evaluateRaw(b.pts[i])
			b.slots[i] = evalSlot{d: d, err: err, done: true}
			if err != nil {
				b.stop.Store(true)
				return
			}
		}
	}
}

// chunkFor sizes the claim batches: large grids are claimed in chunks
// (one atomic per chunk instead of per point, and consecutive points
// keep cache locality in the workload's scratch), while small windows
// — race-then-fine sweeps are 9 evaluations — degrade to single-point
// claiming so stragglers cannot serialize the window.
func chunkFor(n, par int) int64 {
	c := n / (par * 8)
	if c < 1 {
		c = 1
	}
	if c > 64 {
		c = 64
	}
	return int64(c)
}

// evalArena holds the recycled buffers of one sweep window: the grid,
// the fresh-point filter, the result slots and the batch header
// itself. Pooling them makes the engine's overhead per window a
// handful of allocations regardless of grid size, which matters
// because the searchers issue many small windows (gradient probes,
// race neighborhoods) per search.
type evalArena struct {
	grid  []float64
	fresh []float64
	keys  []int64
	batch evalBatch
}

var arenaPool = sync.Pool{New: func() any { return new(evalArena) }}

// evalPool is the process-wide persistent worker pool behind parallel
// sweeps. Workers are spawned lazily up to evalPoolMax and then park
// on the work channel between batches, so a sweep window costs channel
// sends to already-running goroutines rather than goroutine spawns and
// stack growth — the overhead that dominated small windows when every
// evalAll call spawned its own workers.
var evalPool = struct {
	work chan *evalBatch
	idle atomic.Int64 // workers parked on the channel
	size atomic.Int64 // workers alive
}{work: make(chan *evalBatch, 256)}

// evalPoolMax bounds the pool across all concurrent searches in the
// process (the serving stack runs many); a parked worker costs one
// goroutine stack.
const evalPoolMax = 128

func poolWorker() {
	evalPool.idle.Add(1)
	for b := range evalPool.work {
		evalPool.idle.Add(-1)
		if b.join() {
			b.run()
			b.leave()
		}
		evalPool.idle.Add(1)
	}
}

// recruit asks the pool for one helper on b, spawning a worker when
// none is parked and the pool is under its cap. Best-effort by design:
// if the pool is saturated or the queue full, the helper simply never
// arrives and the submitter drains the batch itself.
func recruit(b *evalBatch) {
	if evalPool.idle.Load() <= 0 {
		for {
			n := evalPool.size.Load()
			if n >= evalPoolMax {
				break
			}
			if evalPool.size.CompareAndSwap(n, n+1) {
				go poolWorker()
				break
			}
		}
	}
	select {
	case evalPool.work <- b:
	default:
	}
}

// evalAll evaluates every not-yet-seen point of pts, fanning out to
// the persistent worker pool when the context allows parallelism, and
// commits the observations strictly in pts order. The resulting Evals,
// Cost, Curve and Best bookkeeping is identical to evaluating pts with
// a sequential loop, regardless of worker count: only the ordered
// commit pass mutates the tracker, stopping at the first index that
// failed (so later successes are discarded exactly as a sequential
// sweep would never have run them), and any index abandoned when the
// batch stopped early is evaluated inline right where the sequential
// loop would have evaluated it.
func (e *evalTracker) evalAll(pts []float64) error {
	a := arenaPool.Get().(*evalArena)
	defer arenaPool.Put(a)
	return e.evalWindow(a, pts)
}

func (e *evalTracker) evalWindow(a *evalArena, pts []float64) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	// Filter against the memo (and within pts itself) up front so the
	// pool only sees fresh work; a repeated key costs nothing, exactly
	// like a sequential memo hit. Within-window duplicates are found by
	// scanning the fresh keys — windows are either tiny (probe pairs)
	// or already deduplicated ascending grids, so the scan stays cheap.
	fresh, keys := a.fresh[:0], a.keys[:0]
	e.mu.Lock()
	for _, t := range pts {
		k := key(t)
		if _, ok := e.seen[k]; ok {
			continue
		}
		dup := false
		for _, seenK := range keys {
			if seenK == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		keys = append(keys, k)
		fresh = append(fresh, t)
	}
	e.mu.Unlock()
	a.fresh, a.keys = fresh, keys // keep buffer growth for reuse
	if len(fresh) == 0 {
		return nil
	}
	par := ParallelismFromContext(e.ctx)
	if par > len(fresh) {
		par = len(fresh)
	}
	if par <= 1 {
		for _, t := range fresh {
			if _, err := e.eval(t); err != nil {
				return err
			}
		}
		return nil
	}

	if cap(a.batch.slots) < len(fresh) {
		a.batch.slots = make([]evalSlot, len(fresh))
	}
	b := &a.batch
	b.slots = b.slots[:len(fresh)]
	for i := range b.slots {
		b.slots[i] = evalSlot{}
	}
	b.tr = e
	b.pts = fresh
	b.chunk = chunkFor(len(fresh), par)
	b.limit.Store(int64(par))
	b.next.Store(0)
	b.stop.Store(false)
	if b.doneCh == nil {
		b.doneCh = make(chan struct{}, 1)
	}
	// Publish only after every plain field is reset: join synchronizes
	// on this store, so a pool worker that wins a join is guaranteed to
	// see the current window's fields.
	b.workers.Store(1) // the submitter itself
	for k := 1; k < par; k++ {
		recruit(b)
	}
	b.run()
	b.leave()
	<-b.doneCh

	// Ordered commit with hole repair. On the success path every slot
	// is done and this is a pure in-order commit. When the batch
	// stopped early, chunk tails may have been abandoned below the
	// stopping index; evaluating such a hole inline — exactly where the
	// sequential loop would have evaluated it — reproduces sequential
	// bookkeeping and blame regardless of how workers interleaved.
	for i := range b.slots {
		s := &b.slots[i]
		if !s.done {
			if err := e.ctx.Err(); err != nil {
				return err
			}
			d, err := e.evaluateRaw(fresh[i])
			if err != nil {
				return err
			}
			e.commit(fresh[i], d)
			continue
		}
		if s.err != nil {
			return s.err
		}
		e.commit(fresh[i], s.d)
	}
	return nil
}
