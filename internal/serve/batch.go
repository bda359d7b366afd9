package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
)

// resolveItem resolves one manifest item exactly as a single request
// with the same parameters (same defaults, same cache key). A zero
// seed/repeats in the manifest means "default" — the manifest cannot
// distinguish absent from zero, and the single path treats absent the
// same way. A failure surfaces as a per-item "invalid" event rather
// than failing the job.
func (s *Server) resolveItem(src batch.Item) (*request, error) {
	req := &request{item: src.Name, workload: src.Workload, seed: src.Seed, repeats: src.Repeats,
		body: src.Body}
	if req.seed == 0 {
		req.seed = defaultSeed
	}
	if req.repeats == 0 {
		req.repeats = defaultRepeats
	}
	if req.repeats < 1 || req.repeats > 99 {
		return req, badRequest("item %q: bad repeats %d (want 1..99)", src.Name, src.Repeats)
	}
	if err := s.resolve(req, src.Searcher, src.Dataset); err != nil {
		var he *httpError
		if errors.As(err, &he) {
			err = &httpError{code: he.code, err: fmt.Errorf("item %q: %v", src.Name, he.err)}
		}
		return req, err
	}
	return req, nil
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
		if status == http.StatusGatewayTimeout {
			s.metrics.DeadlineExceeded.Inc()
		}
		writeJSON(w, status, errorBody(ctx, terr))
		return status
	}

	s.metrics.BatchJob(len(job.Items))
	reqs := make([]*request, len(job.Items))
	errs := make([]error, len(job.Items))
	for i, src := range job.Items {
		reqs[i], errs[i] = s.resolveItem(src)
	}

	bw := batch.NewWriter(w, batch.Negotiate(r.Header.Get("Accept")))
	bw.Start(w)
	// The budget is anchored here — after body transfer, parsing and
	// fingerprinting — so it governs estimation work: a slow upload
	// shrinks its own transfer window, not every item's carve.
	jobCtx, cancel := context.WithDeadline(ctx, time.Now().Add(timeout))
	defer cancel()
	s.runBatch(jobCtx, bw, reqs, errs, start)
	if err := bw.Close(); err != nil {
		s.logger.WarnContext(ctx, "estimate-batch stream closed early", slog.Any("err", err))
	}
	return http.StatusOK
}

// runBatch executes a resolved job: answer cache hits first, admit the
// rest under one aggregate admission (shedding the tail per item),
// hold one worker slot for the whole job, and run admitted items
// sequentially with the remaining deadline budget re-carved before
// each one. errs[i] is item i's resolution failure, if any.
func (s *Server) runBatch(jobCtx context.Context, bw *batch.Writer, reqs []*request, errs []error, start time.Time) {
	summary := batch.Summary{Items: len(reqs)}
	_, buildsBefore := s.metrics.BuildCounts()
	emit := func(e batch.Event) { _ = bw.Emit(e) }
	// The summary trailer closes every job, after its admission and
	// worker slot are released. Builds counts the workload builds that
	// actually ran (build-cache misses during the job; approximate
	// under concurrent single-request traffic).
	defer func() {
		_, buildsAfter := s.metrics.BuildCounts()
		summary.Builds = int(buildsAfter - buildsBefore)
		summary.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		emit(batch.Event{Type: batch.EventSummary, Summary: &summary})
	}()

	// Fast pass: invalid items answer immediately, cache hits answer
	// without admission — first results reach the client before any
	// pipeline runs.
	var pending []*request
	for i, req := range reqs {
		if errs[i] != nil {
			summary.Failed++
			s.metrics.BatchOutcomes.With("invalid").Inc()
			emit(batch.Event{Type: batch.EventError, Item: req.item, Code: batch.CodeInvalid, Error: errs[i].Error()})
			continue
		}
		if resp, hit := s.cached(req); hit {
			summary.Completed++
			s.metrics.BatchOutcomes.With("cached").Inc()
			emit(batch.Event{Type: batch.EventRefined, Item: req.item, Estimate: marshalEstimate(resp)})
			continue
		}
		pending = append(pending, req)
	}

	admitted := 0
	if len(pending) > 0 {
		costs := make([]int64, len(pending))
		for i, req := range pending {
			costs[i] = req.cost()
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

	// The tail that admission could not fit sheds per item; the job is
	// never 429'd whole.
	for _, req := range pending[admitted:] {
		summary.Shed++
		s.metrics.BatchOutcomes.With("shed").Inc()
		emit(batch.Event{Type: batch.EventError, Item: req.item, Code: batch.CodeShed,
			Error: "admission at capacity: item shed from batch tail"})
	}

	run := pending[:admitted]
	if len(run) == 0 {
		return
	}
	// One worker slot bounds the whole job, exactly like one request.
	if err := s.acquireWorker(jobCtx); err != nil {
		for _, req := range run {
			summary.Failed++
			s.metrics.BatchOutcomes.With("deadline").Inc()
			emit(batch.Event{Type: batch.EventError, Item: req.item,
				Code: batch.CodeDeadline, Error: err.Error()})
		}
		return
	}
	defer s.pool.Release()

	for i, req := range run {
		if jobCtx.Err() != nil && !errors.Is(jobCtx.Err(), context.DeadlineExceeded) {
			// Client gone: stop burning the pool on answers nobody
			// reads. (A job deadline still drains as per-item events.)
			summary.Failed += len(run) - i
			break
		}
		s.runBatchItem(jobCtx, req, len(run)-i, emit, &summary)
	}
}

// runBatchItem runs one admitted item under its carved slice of the
// job's remaining deadline budget. Re-carving before each item —
// remaining / items left — means an item that finishes early donates
// its unused budget to its siblings, and one slow item can overrun
// only its own slice.
func (s *Server) runBatchItem(jobCtx context.Context, req *request, itemsLeft int, emit func(batch.Event), sum *batch.Summary) {
	ictx := jobCtx
	cancel := func() {}
	if remaining, ok := resilience.Remaining(jobCtx); ok {
		per := remaining / time.Duration(itemsLeft)
		if per < resilience.MinBudget {
			sum.Failed++
			s.metrics.DeadlineExceeded.Inc()
			s.metrics.BatchOutcomes.With("deadline").Inc()
			emit(batch.Event{Type: batch.EventError, Item: req.item, Code: batch.CodeDeadline,
				Error: fmt.Sprintf("carved budget %v below minimum %v", per, resilience.MinBudget)})
			return
		}
		ictx, cancel = context.WithTimeout(jobCtx, per)
	}
	defer cancel()

	sctx, span := obs.StartSpan(ictx, "item.estimate")
	span.SetAttr("item", req.item)
	span.SetAttr("input", req.input)
	resp, err := s.run(sctx, req, emit)
	if err != nil {
		span.RecordError(err)
		span.Finish()
		code, outcome := classifyItemError(err)
		if code == batch.CodeDeadline {
			s.metrics.DeadlineExceeded.Inc()
		}
		sum.Failed++
		s.metrics.BatchOutcomes.With(outcome).Inc()
		emit(batch.Event{Type: batch.EventError, Item: req.item, Code: code, Error: err.Error()})
		return
	}
	span.Finish()
	sum.Completed++
	s.metrics.BatchOutcomes.With("refined").Inc()
	emit(batch.Event{Type: batch.EventRefined, Item: req.item, Estimate: marshalEstimate(*resp)})
}

// coarseEvent is a batch item's first usable answer, emitted before
// any fine sweep: a store neighbor's threshold when one is in transfer
// range, the platform's static split otherwise.
func (s *Server) coarseEvent(req *request, meta storeMeta, n store.Neighbor) batch.Event {
	coarse := EstimateResponse{
		Workload:  req.workload,
		Input:     req.input,
		Seed:      req.seed,
		Repeats:   req.repeats,
		Searcher:  "naive-static(coarse)",
		Threshold: req.platform.StaticShares()[0],
	}
	if meta.hit {
		coarse.Searcher = "store-warm(coarse)"
		coarse.Threshold = n.Entry.Threshold
		coarse.StoreHit = true
		coarse.StoreNeighbor = meta.neighbor
		coarse.StoreDistance = meta.distance
	}
	return batch.Event{Type: batch.EventCoarse, Item: req.item, Estimate: marshalEstimate(coarse)}
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
