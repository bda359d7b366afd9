package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// handleEstimateBatch scatters one batch job across the ring and
// gathers the per-item event streams back into a single response.
//
// Split: each item routes by the same input identity the single-item
// path shards on (upload fingerprint or dataset name), so a batch
// lands its items exactly where their caches and threshold stores
// already live. Items sharing a backend travel together as one
// sub-batch — one admission, one build-cache scope over there.
//
// Gather: sub-batch NDJSON streams are merged in arrival order, each
// event stamped with backend provenance. Items are independent: when
// a shard's stream dies, each of its unfinished items is rescued
// through the single-item path, and one that still cannot be answered
// degrades alone — first its coarse answer if one arrived, else an
// explicit backend_failed marker — while the other shards' refined
// results stream on untouched. A slow shard is left to finish: an
// item's estimate is deterministic, so a second run could only repeat
// it. A shard that hangs is cut at the upstream timeout.
func (g *Gateway) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(ctx, w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed (POST a batch manifest)", r.Method))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	job, err := batch.ParseRequest(r, batch.DefaultMaxItems, g.cfg.MaxBodyBytes)
	if err != nil {
		status := http.StatusBadRequest
		var be *batch.Error
		if errors.As(err, &be) {
			status = be.Status
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(ctx, w, status, err)
		return
	}

	// A propagated client budget shapes the backends' work — shaved
	// once here, re-carved per item over there — but it does NOT bound
	// the gateway's stream: backends anchor the budget after body
	// transfer and parsing, so their per-item deadline verdicts can
	// land past the raw budget, and the stream must still be open to
	// relay them. Racing the backends' clocks would turn every honest
	// deadline_exceeded into a rescue against an already-dead budget.
	// Only the upstream timeout (and the client hanging up) ends the
	// job early; normally it ends itself when every item is terminal.
	var subBudget time.Duration // 0 = no client budget; stamp ctx remaining
	if budget, ok, berr := resilience.Budget(r.Header); berr != nil {
		writeError(ctx, w, http.StatusBadRequest, berr)
		return
	} else if ok {
		subBudget = resilience.ShaveBudget(budget)
	}

	g.metrics.FanoutJob(len(job.Items))

	// Split by ring placement. State() peeks without consuming the
	// half-open probe slot — placement is a plan, not an admission.
	sctx, split := obs.StartSpan(ctx, "batch.split")
	type shard struct {
		backend string
		items   []batch.Item
	}
	var shards []*shard
	byBackend := make(map[string]*shard)
	var unplaced []batch.Item
	for _, it := range job.Items {
		backend, ok := g.placeItem(it)
		if !ok {
			unplaced = append(unplaced, it)
			continue
		}
		sh := byBackend[backend]
		if sh == nil {
			sh = &shard{backend: backend}
			byBackend[backend] = sh
			shards = append(shards, sh)
		}
		sh.items = append(sh.items, it)
	}
	split.SetAttr("items", strconv.Itoa(len(job.Items)))
	split.SetAttr("shards", strconv.Itoa(len(shards)))
	split.Finish()

	bw := batch.NewWriter(w, batch.Negotiate(r.Header.Get("Accept")))
	bw.Start(w)

	jobCtx, cancel := context.WithTimeout(sctx, g.cfg.UpstreamTimeout)
	defer cancel()
	var budgetAt time.Time // the client budget's expiry, anchored post-parse
	if subBudget > 0 {
		budgetAt = time.Now().Add(subBudget)
	}

	merge := newBatchMerge(bw, len(job.Items))
	mctx, msp := obs.StartSpan(jobCtx, "batch.merge")
	msp.SetAttr("shards", strconv.Itoa(len(shards)))
	// Once every item has its terminal event the job is answered; a
	// short grace lets healthy shards flush their summary trailers,
	// then any still-open stream (a shard that answered every item but
	// never closed) is cut loose instead of holding the response until
	// the upstream timeout.
	go func() {
		select {
		case <-merge.completed:
		case <-mctx.Done():
			return
		}
		t := time.NewTimer(summaryGrace)
		defer t.Stop()
		select {
		case <-t.C:
			cancel()
		case <-mctx.Done():
		}
	}()
	for _, it := range unplaced {
		g.metrics.FanoutDegraded.Inc()
		merge.emit(batch.Event{Type: batch.EventError, Item: it.Name,
			Code: batch.CodeBackendFailed, Error: errNoBackendAvailable.Error()})
	}
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			g.runSubBatch(mctx, sh.backend, sh.items, r.URL.RawQuery, budgetAt, merge)
		}(sh)
	}
	wg.Wait()
	msp.Finish()

	merge.finish(start)
	if err := bw.Close(); err != nil {
		g.logger.WarnContext(ctx, "estimate-batch stream closed early", slog.Any("err", err))
	}
}

// placeItem picks the item's backend: the first replica on its key's
// ring walk whose breaker is not open.
func (g *Gateway) placeItem(it batch.Item) (string, bool) {
	for _, b := range g.ring.Replicas(it.Key(), g.ring.Len()) {
		if g.breaker(b).State() != BreakerOpen {
			return b, true
		}
	}
	return "", false
}

// runSubBatch forwards one sub-batch to its backend, relays its event
// stream into the merge, and rescues whatever the shard left
// unterminated when its stream ends.
func (g *Gateway) runSubBatch(ctx context.Context, backend string, items []batch.Item, rawQuery string, budgetAt time.Time, merge *batchMerge) {
	g.metrics.FanoutSubBatches.With(backend).Inc()
	ctx, sp := obs.StartSpan(ctx, "upstream")
	sp.SetAttr("backend", backend)
	sp.SetAttr("http.path", "/estimate-batch")
	sp.SetAttr("items", strconv.Itoa(len(items)))
	defer sp.Finish()

	// Anything the shard never terminated — a failed POST, stream
	// death, a truncated response, a backend bug — is rescued item by
	// item once the stream ends.
	defer g.rescueRemaining(ctx, items, merge)

	resp, err := g.postSubBatch(ctx, backend, items, rawQuery, budgetAt)
	if err != nil {
		sp.RecordError(err)
		if ctx.Err() == nil {
			g.breaker(backend).Record(false)
		}
		g.logger.Warn("sub-batch failed; rescuing items",
			slog.String("backend", backend), slog.Int("items", len(items)), slog.Any("err", err))
		return
	}
	defer resp.Body.Close()

	streamErr := batch.ReadEvents(resp.Body, func(e batch.Event) error {
		if e.Type == batch.EventSummary {
			if e.Summary != nil {
				merge.addSubSummary(*e.Summary)
			}
			return nil
		}
		if e.Backend == "" {
			e.Backend = backend
		}
		if e.Type == batch.EventError && e.Code == batch.CodeShed {
			// Admission backpressure from the shard: feed the breaker's
			// shed streak, not its failure streak.
			g.breaker(backend).RecordShed()
			g.metrics.Shed(backend)
		}
		merge.emit(e)
		return nil
	})
	if streamErr != nil {
		sp.RecordError(streamErr)
		if ctx.Err() == nil {
			g.breaker(backend).Record(false)
		}
		g.logger.Warn("sub-batch stream died; rescuing items",
			slog.String("backend", backend), slog.Any("err", streamErr))
	} else {
		g.breaker(backend).Record(true)
	}
}

// postSubBatch performs the sub-batch POST and returns the open
// streaming response. Non-200 answers are drained into an error.
func (g *Gateway) postSubBatch(ctx context.Context, backend string, items []batch.Item, rawQuery string, budgetAt time.Time) (*http.Response, error) {
	body, contentType, err := batch.EncodeRequest(items)
	if err != nil {
		return nil, fmt.Errorf("encoding sub-batch: %w", err)
	}
	u := backend + "/estimate-batch"
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("building sub-batch request for %s: %w", backend, err)
	}
	req.Header.Set("Content-Type", contentType)
	// The gateway always streams NDJSON from backends, whatever the
	// client negotiated: merge needs events as they happen.
	req.Header.Set("Accept", "application/x-ndjson")
	obs.Inject(ctx, req.Header)
	// The backend's budget is the client's, not the gateway's own
	// (slacker) job deadline: stamping ctx remaining here would hand the
	// reporting grace to the backend as extra estimation time.
	if !budgetAt.IsZero() {
		rem := time.Until(budgetAt)
		if rem < time.Millisecond {
			rem = time.Millisecond
		}
		resilience.SetBudget(req.Header, rem)
	} else if rem, ok := resilience.Remaining(ctx); ok {
		resilience.SetBudget(req.Header, rem)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", backend, err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamResponse))
		resp.Body.Close()
		return nil, fmt.Errorf("backend %s: HTTP %d: %s", backend, resp.StatusCode, firstLine(b))
	}
	return resp, nil
}

// rescueRemaining rescues, concurrently, every item that has no
// terminal event yet, and returns once each has one, so the rescues
// land before the job summary does.
func (g *Gateway) rescueRemaining(ctx context.Context, items []batch.Item, merge *batchMerge) {
	var wg sync.WaitGroup
	for _, it := range items {
		if merge.settled(it.Name) {
			continue
		}
		wg.Add(1)
		go func(it batch.Item) {
			defer wg.Done()
			g.rescueItem(ctx, it, merge)
		}(it)
	}
	wg.Wait()
}

// rescueItem re-runs one item through the single-item path — the full
// forward machinery with its own retries — and emits its terminal
// event if the item is still unsettled. When the rescue also
// fails, the item degrades: its coarse answer if the shard delivered
// one before dying, an explicit backend_failed marker otherwise.
func (g *Gateway) rescueItem(ctx context.Context, it batch.Item, merge *batchMerge) {
	if merge.settled(it.Name) {
		return
	}
	q := url.Values{}
	if it.Workload != "" {
		q.Set("workload", it.Workload)
	}
	if it.Searcher != "" {
		q.Set("searcher", it.Searcher)
	}
	if it.Seed != 0 {
		q.Set("seed", strconv.FormatUint(it.Seed, 10))
	}
	if it.Repeats != 0 {
		q.Set("repeats", strconv.Itoa(it.Repeats))
	}
	method := http.MethodPost
	if it.Body == nil {
		method = http.MethodGet
		q.Set("dataset", it.Dataset)
	}
	res, err := g.forward(ctx, method, q.Encode(), it.Body, it.Key())
	if err == nil && res.status == http.StatusOK {
		merge.emit(batch.Event{Type: batch.EventRefined, Item: it.Name,
			Estimate: res.body, Backend: res.backend, Degraded: res.degraded})
		return
	}
	if err == nil {
		err = fmt.Errorf("backend %s: HTTP %d: %s", res.backend, res.status, firstLine(res.body))
	}
	if coarse, ok := merge.coarseOf(it.Name); ok {
		g.metrics.FanoutDegraded.Inc()
		merge.emit(batch.Event{Type: batch.EventRefined, Item: it.Name,
			Estimate: coarse.Estimate, Backend: coarse.Backend,
			Degraded: true, Code: batch.CodeBackendFailed})
		return
	}
	g.metrics.FanoutDegraded.Inc()
	merge.emit(batch.Event{Type: batch.EventError, Item: it.Name,
		Code: batch.CodeBackendFailed, Error: err.Error()})
}

// summaryGrace is how long the gather waits, after the last item's
// terminal event, for straggling sub-batch summary trailers before
// cancelling still-open shard streams.
const summaryGrace = 100 * time.Millisecond

// batchMerge funnels several shard streams into one client response:
// every item gets exactly one terminal event (first writer wins), and
// the gateway summary aggregates what actually happened across shards.
type batchMerge struct {
	mu        sync.Mutex
	w         *batch.Writer
	terminal  map[string]bool
	coarse    map[string]batch.Event
	summary   batch.Summary
	completed chan struct{} // closed when every item has a terminal event
}

func newBatchMerge(w *batch.Writer, items int) *batchMerge {
	return &batchMerge{
		w:         w,
		terminal:  make(map[string]bool, items),
		coarse:    make(map[string]batch.Event, items),
		summary:   batch.Summary{Items: items},
		completed: make(chan struct{}),
	}
}

// emit forwards one item event, deduplicating terminals: once an item
// has its terminal event, later events for it (a shard repeating
// itself) are dropped.
func (m *batchMerge) emit(e batch.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.terminal[e.Item] {
		return
	}
	if e.Terminal() {
		m.terminal[e.Item] = true
		switch {
		case e.Type == batch.EventError && e.Code == batch.CodeShed:
			m.summary.Shed++
		case e.Type == batch.EventError:
			m.summary.Failed++
		default:
			m.summary.Completed++
			if e.Degraded {
				m.summary.Degraded++
			}
		}
		if len(m.terminal) == m.summary.Items {
			close(m.completed)
		}
	} else if e.Type == batch.EventCoarse {
		m.coarse[e.Item] = e
	}
	_ = m.w.Emit(e)
}

// settled reports whether the item already has its terminal event.
func (m *batchMerge) settled(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.terminal[name]
}

// coarseOf returns the item's coarse event, if one arrived before its
// shard failed.
func (m *batchMerge) coarseOf(name string) (batch.Event, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.coarse[name]
	return e, ok
}

// addSubSummary folds one shard's trailer into the job aggregate: the
// batch's whole-job admission count is the sum over sub-batches, as
// are the build-cache misses.
func (m *batchMerge) addSubSummary(s batch.Summary) {
	m.mu.Lock()
	m.summary.Admissions += s.Admissions
	m.summary.Builds += s.Builds
	m.mu.Unlock()
}

// finish emits the gateway-level job trailer.
func (m *batchMerge) finish(start time.Time) {
	m.mu.Lock()
	m.summary.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	s := m.summary
	m.mu.Unlock()
	_ = m.w.Emit(batch.Event{Type: batch.EventSummary, Summary: &s})
}
