package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
)

// batchItem is one resolved item of an /estimate-batch job: the wire
// item plus the derived state the single-request path computes from
// query parameters (searcher, cache key, admission cost). A resolution
// failure is carried in err and surfaces as a per-item "invalid" event
// rather than failing the job.
type batchItem struct {
	src      batch.Item
	workload string
	searcher core.Searcher
	seed     uint64
	repeats  int
	input    string // reported name
	key      string // input identity ("dataset:x" / "upload:<fp>")
	cacheKey string
	cost     int64
	hint     *store.Features
	err      error
}

// resolveItem derives the per-item state, applying the same defaults
// as the single-request path (seed 42, repeats 3, workload cc). A zero
// seed/repeats in the manifest means "default" — the manifest cannot
// distinguish absent from zero, and the single path treats absent the
// same way.
func (s *Server) resolveItem(src batch.Item) *batchItem {
	it := &batchItem{src: src, workload: src.Workload, seed: src.Seed, repeats: src.Repeats}
	if it.workload == "" {
		it.workload = WorkloadCC
	}
	if it.seed == 0 {
		it.seed = 42
	}
	if it.repeats == 0 {
		it.repeats = 3
	}
	if it.repeats < 1 || it.repeats > 99 {
		it.err = badRequest("item %q: bad repeats %d (want 1..99)", src.Name, src.Repeats)
		return it
	}
	searcher, err := searcherFor(it.workload, src.Searcher)
	if err != nil {
		it.err = badRequest("item %q: %v", src.Name, err)
		return it
	}
	it.searcher = searcher
	if src.Body != nil {
		fp := batch.Fingerprint(src.Body)
		it.input, it.key = "upload:"+fp, "upload:"+fp
	} else {
		if _, err := datasets.ByName(src.Dataset); err != nil {
			it.err = &httpError{code: http.StatusNotFound, err: fmt.Errorf("item %q: %v", src.Name, err)}
			return it
		}
		it.input, it.key = src.Dataset, "dataset:"+src.Dataset
	}
	it.cacheKey = strings.Join([]string{
		it.key, it.workload, searcher.Name(),
		strconv.FormatUint(it.seed, 10), strconv.Itoa(it.repeats),
	}, "|")
	it.cost = searchCost(searcher, it.repeats)
	if src.Features != "" && s.store != nil {
		if f, err := store.ParseFeatures(src.Features); err == nil {
			it.hint = &f
		}
	}
	return it
}

// handleEstimateBatch serves POST /estimate-batch: many named items
// under one pool admission, with results streamed progressively as
// NDJSON/SSE events (coarse → refined per item, then a job summary)
// or buffered into one JSON document by content negotiation.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	done := s.metrics.RequestStarted("batch")
	code := s.estimateBatch(w, r, start)
	done(code, time.Since(start))
}

// estimateBatch runs one batch job and returns the HTTP status it
// answered with. All rejection bodies are written here; once streaming
// starts the status is committed as 200 and failures become per-item
// events.
func (s *Server) estimateBatch(w http.ResponseWriter, r *http.Request, start time.Time) int {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		err := fmt.Errorf("method %s not allowed (POST a batch manifest)", r.Method)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody(ctx, err))
		return http.StatusMethodNotAllowed
	}
	maxBytes := s.cfg.BatchMaxBytes
	if maxBytes <= 0 {
		maxBytes = s.cfg.MaxUploadBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	job, err := batch.ParseRequest(r, s.cfg.BatchMaxItems, maxBytes)
	if err != nil {
		status, codeStr := http.StatusBadRequest, "bad_manifest"
		var be *batch.Error
		if errors.As(err, &be) {
			status, codeStr = be.Status, be.Code
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, codeStr = http.StatusRequestEntityTooLarge, "too_large"
		}
		s.metrics.BatchRejected.Inc()
		body := errorBody(ctx, err)
		body["code"] = codeStr
		s.logger.ErrorContext(ctx, "estimate-batch rejected",
			slog.Int("status", status), slog.String("code", codeStr), slog.Any("err", err))
		writeJSON(w, status, body)
		return status
	}

	// The whole-job deadline comes from the same sources as a single
	// request (?timeout= and the propagated X-Deadline-Ms budget); a
	// malformed or hopeless budget fails the job before any work.
	timeout, terr := s.requestTimeout(r)
	if terr != nil {
		status := statusFor(terr)
		var he *httpError
		if errors.As(terr, &he) {
			status = he.code
		}
		if status == http.StatusGatewayTimeout {
			s.metrics.DeadlineExceeded.Inc()
		}
		writeJSON(w, status, errorBody(ctx, terr))
		return status
	}

	s.metrics.BatchJob(len(job.Items))
	items := make([]*batchItem, len(job.Items))
	for i, src := range job.Items {
		items[i] = s.resolveItem(src)
	}

	bw := batch.NewWriter(w, batch.Negotiate(r.Header.Get("Accept")))
	bw.Start(w)
	// The budget is anchored here — after body transfer, parsing and
	// fingerprinting — so it governs estimation work: a slow upload
	// shrinks its own transfer window, not every item's carve.
	jobCtx, cancel := context.WithDeadline(ctx, time.Now().Add(timeout))
	defer cancel()
	s.runBatch(jobCtx, bw, items, start)
	if err := bw.Close(); err != nil {
		s.logger.WarnContext(ctx, "estimate-batch stream closed early", slog.Any("err", err))
	}
	return http.StatusOK
}

// runBatch executes a resolved job: answer cache hits first, admit the
// rest under one aggregate admission (shedding the tail per item),
// hold one worker slot for the whole job, and run admitted items
// sequentially with the remaining deadline budget re-carved before
// each one.
func (s *Server) runBatch(jobCtx context.Context, bw *batch.Writer, items []*batchItem, start time.Time) {
	summary := batch.Summary{Items: len(items)}
	_, buildsBefore := s.metrics.BuildCounts()
	emit := func(e batch.Event) { _ = bw.Emit(e) }

	// Fast pass: invalid items answer immediately, cache hits answer
	// without admission — first results reach the client before any
	// pipeline runs.
	var pending []*batchItem
	for _, it := range items {
		if it.err != nil {
			summary.Failed++
			s.metrics.BatchOutcomes.With("invalid").Inc()
			emit(batch.Event{Type: batch.EventError, Item: it.src.Name, Code: batch.CodeInvalid, Error: it.err.Error()})
			continue
		}
		if v, hit := s.cache.Get(it.cacheKey); hit {
			e := v.(cacheEntry)
			resp := e.resp
			resp.Cached = true
			resp.Stale = s.stale(e.at)
			s.metrics.CacheHits.Inc()
			if resp.Stale {
				s.metrics.StaleServed.Inc()
				s.revalidate(it.cacheKey, it.workload, it.input, it.src.Body, it.searcher, it.seed, it.repeats, 0, nil)
			}
			summary.Completed++
			s.metrics.BatchOutcomes.With("cached").Inc()
			emit(batch.Event{Type: batch.EventRefined, Item: it.src.Name, Estimate: marshalEstimate(resp)})
			continue
		}
		pending = append(pending, it)
	}

	admitted := 0
	if len(pending) > 0 {
		costs := make([]int64, len(pending))
		for i, it := range pending {
			costs[i] = it.cost
		}
		_, aspan := obs.StartSpan(jobCtx, "batch.admit")
		aspan.SetAttr("items", strconv.Itoa(len(pending)))
		n, total, err := s.admission.AcquireBatch(jobCtx, costs)
		aspan.SetAttr("admitted", strconv.Itoa(n))
		aspan.SetAttr("cost", strconv.FormatInt(total, 10))
		aspan.RecordError(err)
		aspan.Finish()
		admitted = n
		if total > 0 {
			defer s.admission.Release(total)
		}
		if n > 0 {
			summary.Admissions = 1
		}
		if err != nil && errors.Is(err, resilience.ErrOverloaded) {
			s.metrics.Shed.Inc()
		}
	}

	// The LIFO tail that admission could not fit: degrade or shed per
	// item, never 429 the whole job.
	for _, it := range pending[admitted:] {
		summary.Shed++
		s.metrics.BatchOutcomes.With("shed").Inc()
		emit(s.batchShedEvent(it, &summary))
	}

	run := pending[:admitted]
	if len(run) == 0 {
		finishSummary(&summary, s, buildsBefore, start)
		emit(batch.Event{Type: batch.EventSummary, Summary: &summary})
		return
	}
	// One worker slot bounds the whole job, exactly like one request.
	if err := s.acquireWorker(jobCtx); err != nil {
		for _, it := range run {
			summary.Failed++
			s.metrics.BatchOutcomes.With("deadline").Inc()
			emit(batch.Event{Type: batch.EventError, Item: it.src.Name,
				Code: batch.CodeDeadline, Error: err.Error()})
		}
		finishSummary(&summary, s, buildsBefore, start)
		emit(batch.Event{Type: batch.EventSummary, Summary: &summary})
		return
	}
	defer s.pool.Release()

	for i, it := range run {
		if jobCtx.Err() != nil && !errors.Is(jobCtx.Err(), context.DeadlineExceeded) {
			// Client gone: stop burning the pool on answers nobody
			// reads. (A job deadline still drains as per-item events.)
			summary.Failed += len(run) - i
			break
		}
		s.runBatchItem(jobCtx, it, len(run)-i, emit, &summary)
	}
	finishSummary(&summary, s, buildsBefore, start)
	emit(batch.Event{Type: batch.EventSummary, Summary: &summary})
}

// finishSummary stamps the job-wide accounting: workload builds that
// actually ran (build-cache misses during the job; approximate under
// concurrent single-request traffic) and wall-clock.
func finishSummary(sum *batch.Summary, s *Server, buildsBefore uint64, start time.Time) {
	_, buildsAfter := s.metrics.BuildCounts()
	sum.Builds = int(buildsAfter - buildsBefore)
	sum.WallMS = float64(time.Since(start).Microseconds()) / 1e3
}

// batchShedEvent renders a shed item: a degraded NaiveStatic/stale
// answer when DegradeOnShed allows, an explicit shed error otherwise —
// the per-item analogue of the single path's 429-or-degrade choice.
func (s *Server) batchShedEvent(it *batchItem, sum *batch.Summary) batch.Event {
	if !s.cfg.DegradeOnShed {
		return batch.Event{Type: batch.EventError, Item: it.src.Name, Code: batch.CodeShed,
			Error: "admission at capacity: item shed from batch tail"}
	}
	var resp EstimateResponse
	if v, ok := s.cache.Get(it.cacheKey); ok {
		e := v.(cacheEntry)
		resp = e.resp
		resp.Cached = true
		resp.Stale = s.stale(e.at)
	} else {
		resp = EstimateResponse{
			Workload:  it.workload,
			Input:     it.input,
			Searcher:  "naive-static(fallback)",
			Seed:      it.seed,
			Threshold: 100 * s.platform.StaticCPUShare(),
		}
	}
	resp.Degraded = true
	s.metrics.Degraded.Inc()
	sum.Degraded++
	return batch.Event{Type: batch.EventRefined, Item: it.src.Name, Degraded: true,
		Code: batch.CodeShed, Estimate: marshalEstimate(resp)}
}

// runBatchItem runs one admitted item under its carved slice of the
// job's remaining deadline budget. Re-carving before each item —
// remaining / items left — means an item that finishes early donates
// its unused budget to its siblings, and one slow item can overrun
// only its own slice.
func (s *Server) runBatchItem(jobCtx context.Context, it *batchItem, itemsLeft int, emit func(batch.Event), sum *batch.Summary) {
	ictx := jobCtx
	cancel := func() {}
	if remaining, ok := resilience.Remaining(jobCtx); ok {
		per := remaining / time.Duration(itemsLeft)
		if per < resilience.MinBudget {
			sum.Failed++
			s.metrics.DeadlineExceeded.Inc()
			s.metrics.BatchOutcomes.With("deadline").Inc()
			emit(batch.Event{Type: batch.EventError, Item: it.src.Name, Code: batch.CodeDeadline,
				Error: fmt.Sprintf("carved budget %v below minimum %v", per, resilience.MinBudget)})
			return
		}
		ictx, cancel = context.WithTimeout(jobCtx, per)
	}
	defer cancel()

	sctx, span := obs.StartSpan(ictx, "item.estimate")
	span.SetAttr("item", it.src.Name)
	span.SetAttr("input", it.input)
	resp, err := s.runBatchPipeline(sctx, it, emit)
	if err != nil {
		span.RecordError(err)
		span.Finish()
		code, outcome := classifyItemError(err)
		if code == batch.CodeDeadline {
			s.metrics.DeadlineExceeded.Inc()
		}
		sum.Failed++
		s.metrics.BatchOutcomes.With(outcome).Inc()
		emit(batch.Event{Type: batch.EventError, Item: it.src.Name, Code: code, Error: err.Error()})
		return
	}
	span.Finish()
	sum.Completed++
	s.metrics.BatchOutcomes.With("refined").Inc()
	emit(batch.Event{Type: batch.EventRefined, Item: it.src.Name, Estimate: marshalEstimate(*resp)})
}

// runBatchPipeline is the per-item pipeline body. The caller already
// holds the job's aggregate admission and the worker slot; this runs
// build (through the shared build cache) → store lookup → coarse event
// → probe-verified skip or a (possibly warm-started) search.
func (s *Server) runBatchPipeline(ctx context.Context, it *batchItem, emit func(batch.Event)) (*EstimateResponse, error) {
	cw, err := s.buildWorkload(ctx, it.workload, it.input, it.src.Body)
	if err != nil {
		return nil, err
	}
	var (
		meta storeMeta
		n    store.Neighbor
	)
	if s.store != nil {
		meta, n = s.storeLookup(ctx, it.workload, it.key, cw, it.hint)
	}

	// Coarse event: the first usable answer, before any fine sweep — a
	// store neighbor's threshold when one is in transfer range, the
	// platform's static split otherwise.
	coarse := EstimateResponse{
		Workload:  it.workload,
		Input:     it.input,
		Seed:      it.seed,
		Repeats:   it.repeats,
		Searcher:  "naive-static(coarse)",
		Threshold: 100 * s.platform.StaticCPUShare(),
	}
	if meta.hit {
		coarse.Searcher = "store-warm(coarse)"
		coarse.Threshold = n.Entry.Threshold
		coarse.StoreHit = true
		coarse.StoreNeighbor = meta.neighbor
		coarse.StoreDistance = meta.distance
	}
	emit(batch.Event{Type: batch.EventCoarse, Item: it.src.Name, Estimate: marshalEstimate(coarse)})

	if meta.hit && s.store.CanSkip(n) {
		resp, ok, err := s.probeTransfer(ctx, it.cacheKey, it.workload, it.input, it.key,
			cw, n, meta, it.searcher, it.seed, it.repeats, true)
		if err != nil {
			return nil, err
		}
		if ok {
			return resp, nil
		}
	}
	return s.searchAndRespond(ctx, it.cacheKey, it.workload, it.input, cw, it.searcher, it.seed, it.repeats, meta, n)
}

// classifyItemError maps a per-item pipeline error to its event code
// and metrics outcome label.
func classifyItemError(err error) (code, outcome string) {
	var he *httpError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return batch.CodeDeadline, "deadline"
	case errors.Is(err, resilience.ErrOverloaded):
		return batch.CodeShed, "shed"
	case errors.As(err, &he) && he.code >= 400 && he.code < 500:
		return batch.CodeInvalid, "invalid"
	default:
		return batch.CodeInternal, "error"
	}
}

// marshalEstimate renders a response as the opaque estimate payload of
// a batch event. EstimateResponse always marshals; a failure here is a
// programming error worth surfacing in the stream.
func marshalEstimate(resp EstimateResponse) json.RawMessage {
	b, err := json.Marshal(resp)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return b
}
