package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sparse"
	"repro/internal/store"
)

// EstimateResponse is the JSON answer of /estimate. Durations are
// reported both as nanoseconds (machine-readable) and human strings.
type EstimateResponse struct {
	Workload        string  `json:"workload"`
	Input           string  `json:"input"`
	Searcher        string  `json:"searcher"`
	Seed            uint64  `json:"seed"`
	Repeats         int     `json:"repeats"`
	Threshold       float64 `json:"threshold"`
	SampleThreshold float64 `json:"sample_threshold"`
	Evals           int     `json:"evals"`

	// Devices and the partition fields are present on ?devices=N
	// requests: the estimation ran over the N-device simplex instead of
	// the scalar threshold. Partition[i] is device i's share of the
	// work in percent (device 0 is the CPU); NaiveStaticPartition is
	// the static FLOPS-ratio vector the paper's baseline would pick.
	Devices              int            `json:"devices,omitempty"`
	Partition            core.Partition `json:"partition,omitempty"`
	SamplePartition      core.Partition `json:"sample_partition,omitempty"`
	NaiveStaticPartition core.Partition `json:"naive_static_partition,omitempty"`

	RunTimeNS  int64  `json:"run_time_simulated_ns"`
	RunTime    string `json:"run_time_simulated"`
	SampleNS   int64  `json:"sample_cost_ns"`
	IdentifyNS int64  `json:"identify_cost_ns"`
	OverheadNS int64  `json:"overhead_simulated_ns"`
	Overhead   string `json:"overhead_simulated"`
	// OverheadPct is estimation overhead as a percentage of overhead +
	// run time, the paper's "Overhead %" column.
	OverheadPct float64 `json:"overhead_pct"`

	// Cached reports whether this answer came from the result cache.
	Cached bool `json:"cached"`
	// Coalesced reports whether this answer was computed by an
	// identical concurrent request's pipeline run (singleflight).
	Coalesced bool `json:"coalesced"`
	// Degraded is never set: a shed request gets a 429, not a
	// fallback answer. The field stays because the benchmark checks it.
	Degraded bool `json:"degraded,omitempty"`

	// StoreHit reports that the threshold store held a structurally
	// similar neighbor within the transfer radius.
	StoreHit bool `json:"store_hit,omitempty"`
	// Transferred marks a probe-verified transfer: Identify was
	// skipped entirely and Threshold is the neighbor's, verified at
	// full scale by the probe.
	Transferred bool `json:"store_transferred,omitempty"`
	// WarmStarted marks an estimate whose Identify window was
	// narrowed around the neighbor's threshold.
	WarmStarted bool `json:"store_warm_started,omitempty"`
	// StoreNeighbor/StoreDistance identify the matched entry.
	StoreNeighbor string  `json:"store_neighbor,omitempty"`
	StoreDistance float64 `json:"store_distance,omitempty"`
	// Features is the structural feature vector the server measured on
	// the input, in store.Features.String form; present when the store
	// is enabled.
	Features string `json:"features,omitempty"`

	// WallMS is the server-side handling time of this request.
	WallMS float64 `json:"wall_ms"`
}

type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	workload := r.URL.Query().Get("workload")
	if workload == "" {
		workload = WorkloadCC
	}
	done := s.metrics.RequestStarted(workload)
	code := http.StatusOK

	resp, err := s.estimate(w, r, workload, start)
	if err != nil {
		code = statusFor(err)
		if code == http.StatusGatewayTimeout && errors.Is(err, context.DeadlineExceeded) {
			s.metrics.DeadlineExceeded.Inc()
		}
		s.logger.ErrorContext(r.Context(), "estimate failed",
			slog.String("method", r.Method),
			slog.String("workload", workload),
			slog.Int("status", code),
			slog.Any("err", err))
		writeJSON(w, code, errorBody(r.Context(), err))
		done(code, time.Since(start))
		return
	}
	resp.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
	done(code, time.Since(start))
}

// estimate parses the request, consults the cache, and runs the
// pipeline under the worker pool on a miss. start is the request's
// arrival time: deadline budgets count from there, so time spent
// reading and fingerprinting an upload is charged against the budget
// exactly as the caller experiences it.
func (s *Server) estimate(w http.ResponseWriter, r *http.Request, workload string, start time.Time) (*EstimateResponse, error) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		return nil, &httpError{code: http.StatusMethodNotAllowed, err: fmt.Errorf("method %s not allowed", r.Method)}
	}
	q := r.URL.Query()
	req := &request{workload: workload, seed: defaultSeed, repeats: defaultRepeats}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, badRequest("bad seed %q: %v", v, err)
		}
		req.seed = n
	}
	if v := q.Get("repeats"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 99 {
			return nil, badRequest("bad repeats %q (want 1..99)", v)
		}
		req.repeats = n
	}
	// ?devices=N switches the pipeline to N-device partition-vector
	// estimation. devices == 0 is the legacy scalar threshold path.
	if v := q.Get("devices"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 || n > MaxEstimateDevices {
			return nil, badRequest("bad devices %q (want 2..%d)", v, MaxEstimateDevices)
		}
		req.devices = n
	}
	// The input is an uploaded MatrixMarket body (POST) or a named
	// Table II dataset (GET).
	if r.Method == http.MethodPost {
		body, err := ReadBody(w, r, s.cfg.MaxUploadBytes)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, &httpError{code: http.StatusRequestEntityTooLarge,
					err: fmt.Errorf("upload exceeds %d bytes", s.cfg.MaxUploadBytes)}
			}
			return nil, fmt.Errorf("reading body: %w", err)
		}
		if len(body) == 0 {
			return nil, badRequest("empty POST body; upload a MatrixMarket matrix or GET ?dataset=")
		}
		req.body = body
	}
	if err := s.resolve(req, q.Get("searcher"), q.Get("dataset")); err != nil {
		return nil, err
	}

	// Validated before the cache lookup so a malformed ?timeout= or
	// deadline header 400s loudly even when a cached answer exists. A
	// *well-formed but too-small* budget (the 504 below) is deferred
	// until after the lookup: a cache hit answers instantly, which
	// satisfies any budget.
	timeout, terr := s.requestTimeout(r)
	if terr != nil {
		var he *httpError
		if errors.As(terr, &he) && he.code == http.StatusBadRequest {
			return nil, terr
		}
	}

	_, cspan := obs.StartSpan(r.Context(), "cache.lookup")
	resp, hit := s.cached(req)
	cspan.SetAttr("hit", strconv.FormatBool(hit))
	cspan.Finish()
	if hit {
		s.stampStoreHeaders(w, &resp)
		return &resp, nil
	}

	// Cache miss: a budget too small to fit any work fails fast now
	// (504), before joining a flight it could never wait out.
	if terr != nil {
		return nil, terr
	}

	// Coalesce on the cache key: concurrent identical requests share
	// one pipeline run instead of each burning a worker slot — the LRU
	// only helps after the first completes. Followers inherit the
	// leader's outcome, deadline included; that is the usual
	// singleflight trade and estimation results are request-agnostic.
	v, err, leader := s.flight.Do(req.cacheKey, func() (any, error) {
		// An earlier flight for this key may have finished between the
		// lookup above and this call: answer from the entry it left
		// instead of running the pipeline again.
		if resp, ok := s.cached(req); ok {
			return &resp, nil
		}
		s.metrics.CacheMisses.Inc()
		// Anchored at arrival, not here: with a propagated budget this
		// server must give up strictly before its caller does, even when
		// reading the upload ate a slice of the budget already.
		ctx, cancel := context.WithDeadline(r.Context(), start.Add(timeout))
		defer cancel()
		return s.run(ctx, req, nil)
	})
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			// Admission never queues, so capacity frees as soon as any
			// admitted request finishes: one second is backoff enough.
			w.Header().Set("Retry-After", "1")
		}
		return nil, err
	}
	resp = *(v.(*EstimateResponse)) // copy; Coalesced/WallMS are per-request
	if !leader {
		s.metrics.Coalesced.Inc()
		resp.Coalesced = true
		// The pipeline spans live in the leader's trace; mark the
		// follower's server span so the coalescing is visible there too.
		obs.SpanFromContext(r.Context()).SetAttr("coalesced", "true")
	}
	s.stampStoreHeaders(w, &resp)
	return &resp, nil
}

// cached answers req from the result cache, marking the copy cached.
// Every answer is a deterministic function of the request's
// parameters, so an entry never needs refreshing.
func (s *Server) cached(req *request) (EstimateResponse, bool) {
	v, hit := s.cache.Get(req.cacheKey)
	if !hit {
		return EstimateResponse{}, false
	}
	resp := v.(EstimateResponse) // copy; Cached/WallMS are per-request
	resp.Cached = true
	s.metrics.CacheHits.Inc()
	return resp, true
}

// stampStoreHeaders surfaces the transfer outcome as response headers
// so the gateway can count per-backend transfer rates without parsing
// bodies. Only freshly computed answers are stamped: a cached copy of
// a transferred response did not transfer anything this time.
func (s *Server) stampStoreHeaders(w http.ResponseWriter, resp *EstimateResponse) {
	if resp.Cached || resp.Coalesced {
		return
	}
	if resp.Transferred {
		w.Header().Set(StoreHeader, "skip")
	} else if resp.WarmStarted {
		w.Header().Set(StoreHeader, "warm")
	}
}

// run answers one cache miss — of a single request or a batch item:
// build the workload, consult the threshold store, then either accept
// a probe-verified transfer or run a (possibly warm-started) search,
// and cache the answer.
//
// A single request is gated in one order before anything is built:
// admission at its cold cost (grid points × repeats), which bounds the
// total estimated cost in flight and sheds at once when the cost does
// not fit, then a worker slot. A store hit is charged the same
// cost, and gives it back as soon as its probe accepts the transfer. A batch item (emit
// non-nil) takes neither — its job already holds aggregate admission
// at its items' cold costs and the worker slot — and emits a coarse
// event before the search.
//
// The store's features-to-threshold transfer is scalar, so N-device
// requests bypass it: a partition warm-started from a scalar neighbor
// would not be one.
func (s *Server) run(ctx context.Context, req *request, emit func(batch.Event)) (*EstimateResponse, error) {
	if emit == nil {
		release, err := s.admit(ctx, req.cost())
		if err != nil {
			return nil, err
		}
		defer release()
		if err := s.acquireWorker(ctx); err != nil {
			return nil, err
		}
		defer s.pool.Release()
	}

	w, err := s.buildWorkload(ctx, req)
	if err != nil {
		return nil, err
	}
	var (
		meta storeMeta
		n    store.Neighbor
	)
	if s.store != nil && req.devices == 0 {
		meta, n = s.storeLookup(ctx, req, w.(core.Sampled))
	}
	if emit != nil {
		emit(s.coarseEvent(req, meta, n))
	}
	if meta.hit && s.store.CanSkip(n) {
		resp, ok, err := s.probeTransfer(ctx, req, w.(core.Sampled), n, meta)
		if err != nil {
			return nil, err
		}
		if ok {
			return resp, nil
		}
		// Probe rejected: fall through to the warm path.
	}
	return s.search(ctx, req, w, meta, n)
}

// admit acquires admission cost units, under a span; the returned
// func releases them.
func (s *Server) admit(ctx context.Context, cost int64) (release func(), err error) {
	_, aspan := obs.StartSpan(ctx, "admission.wait")
	aspan.SetAttr("cost", strconv.FormatInt(cost, 10))
	err = s.admission.Acquire(ctx, cost)
	aspan.RecordError(err)
	aspan.Finish()
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			s.metrics.Shed.Inc()
			return nil, err
		}
		return nil, fmt.Errorf("waiting for admission: %w", err)
	}
	return func() { s.admission.Release(cost) }, nil
}

// acquireWorker takes a slot from the bounded worker pool, under a
// span. Waiters respect the request deadline, so a client that gives
// up never holds a slot.
func (s *Server) acquireWorker(ctx context.Context) error {
	_, pspan := obs.StartSpan(ctx, "pool.wait")
	err := s.pool.Acquire(ctx)
	pspan.RecordError(err)
	pspan.Finish()
	if err != nil {
		return fmt.Errorf("waiting for worker: %w", err)
	}
	return nil
}

// search runs the estimation and the final full-input evaluation on a
// built workload — a partition search when the request names a device
// count, a threshold search otherwise — folds in the store
// bookkeeping, and caches the answer. The caller holds (or was spared)
// admission and a worker slot.
func (s *Server) search(ctx context.Context, req *request, w any, meta storeMeta, n store.Neighbor) (*EstimateResponse, error) {
	if meta.warm != nil {
		s.metrics.StoreWarmStarts.Inc()
	}
	// The metrics registry observes every Evaluate call the pipeline
	// makes — sequential or fanned out — for the in-flight gauge.
	ctx = core.WithEvalObserver(ctx, s.metrics)
	cfg := core.Config{
		Searcher:    req.searcher,
		Seed:        req.seed,
		Repeats:     req.repeats,
		Parallelism: s.cfg.Parallelism,
		WarmStart:   meta.warm,
	}
	var resp EstimateResponse
	if req.devices > 0 {
		pw := w.(core.SampledPartition)
		est, err := core.EstimatePartition(ctx, pw, cfg)
		if err != nil {
			return nil, fmt.Errorf("estimating %s: %w", pw.Name(), err)
		}
		runTime, err := s.evaluate(ctx, req, pw, 0, est.Partition)
		if err != nil {
			return nil, err
		}
		resp = newResponse(req, est.Repeats, est.Evals, est.SampleCost, est.IdentifyCost, runTime)
		resp.Devices = req.devices
		resp.Partition = est.Partition
		resp.SamplePartition = est.SamplePartition
		resp.NaiveStaticPartition = core.Partition(req.platform.StaticShares())
	} else {
		cw := w.(core.Sampled)
		est, err := core.EstimateThreshold(ctx, cw, cfg)
		if err != nil {
			return nil, fmt.Errorf("estimating %s: %w", cw.Name(), err)
		}
		runTime, err := s.evaluate(ctx, req, cw, est.Threshold, nil)
		if err != nil {
			return nil, err
		}
		resp = newResponse(req, est.Repeats, est.Evals, est.SampleCost, est.IdentifyCost, runTime)
		resp.Threshold = est.Threshold
		resp.SampleThreshold = est.SampleThreshold
		if s.store != nil && meta.hasFeatures {
			resp.Features = meta.features.String()
			if meta.hit {
				resp.StoreHit = true
				resp.StoreNeighbor = meta.neighbor
				resp.StoreDistance = meta.distance
			}
			if meta.warm != nil {
				resp.WarmStarted = true
				s.observeWarmOutcome(req.workload, n, meta, est)
			}
			// Record this input's own verified result so structurally
			// similar future inputs can transfer from it.
			s.store.Put(req.workload, req.key, s.platformSig, meta.features, est.Threshold, int64(runTime))
		}
	}
	s.cache.Put(req.cacheKey, resp)
	return &resp, nil
}

// evaluate runs one full-input evaluation of w, the workload built for
// req, through evaluateMemo under an "evaluate" span: at the partition
// p when it is non-nil, at the threshold t otherwise.
func (s *Server) evaluate(ctx context.Context, req *request, w any, t float64, p core.Partition) (time.Duration, error) {
	_, espan := obs.StartSpan(ctx, "evaluate")
	defer espan.Finish()
	attr, at := "partition", ""
	if p != nil {
		at = p.String()
	} else {
		attr, at = "threshold", fmt.Sprintf("%.2f", t)
	}
	espan.SetAttr(attr, at)
	runTime, memo, err := s.evaluateMemo(req, w, t, p)
	espan.SetAttr("memo", memo)
	if err != nil {
		err = fmt.Errorf("evaluating %s at %s: %w", w.(interface{ Name() string }).Name(), at, err)
		espan.RecordError(err)
		return 0, err
	}
	espan.SetAttr("simulated_run", runTime.String())
	return runTime, nil
}

// evaluateMemo is every full-input evaluation hetserve makes — the
// final one at the estimate and the store's probe points — at the
// partition p when it is non-nil, at the threshold t otherwise. It
// reports the memo outcome: hit, miss or bypass.
//
// A dataset workload's evaluations are memoized in the build cache,
// keyed by the workload and the exact vector ({t, 100 − t} for a
// threshold, which is how the cc and spmm workloads evaluate it). A
// hit runs nothing, so it counts in neither the in-flight gauge nor
// the evaluations total. Uploads bypass the build cache, and so the
// memo.
func (s *Server) evaluateMemo(req *request, w any, t float64, p core.Partition) (runTime time.Duration, memo string, err error) {
	memo = "bypass"
	var key string
	if req.body == nil {
		if p != nil {
			key = p.String()
		} else {
			key = core.Partition{t, 100 - t}.String()
		}
		if d, ok := s.builds.evaluation(w, key); ok {
			s.metrics.EvalMemoHits.Inc()
			return d, "hit", nil
		}
		s.metrics.EvalMemoMisses.Inc()
		memo = "miss"
	}
	s.metrics.EvalStarted()
	if p != nil {
		runTime, err = w.(core.PartitionWorkload).EvaluatePartition(p)
	} else {
		runTime, err = w.(core.Workload).Evaluate(t)
	}
	s.metrics.EvalDone()
	if err == nil && req.body == nil {
		s.builds.remember(w, key, runTime)
	}
	return runTime, memo, err
}

// newResponse is the answer body every computed estimate shares —
// searched, partitioned or probe-verified: the request's identity plus
// the simulated run time and the estimation overhead (sample +
// identify), with the paper's "Overhead %".
func newResponse(req *request, repeats, evals int, sample, identify, run time.Duration) EstimateResponse {
	overhead := sample + identify
	resp := EstimateResponse{
		Workload:   req.workload,
		Input:      req.input,
		Searcher:   req.searcher.Name(),
		Seed:       req.seed,
		Repeats:    repeats,
		Evals:      evals,
		RunTimeNS:  int64(run),
		RunTime:    run.String(),
		SampleNS:   int64(sample),
		IdentifyNS: int64(identify),
		OverheadNS: int64(overhead),
		Overhead:   overhead.String(),
	}
	if overhead+run > 0 {
		resp.OverheadPct = 100 * float64(overhead) / float64(overhead+run)
	}
	return resp
}

// buildWorkload constructs the request's workload from an uploaded
// MatrixMarket body or a named dataset, under a "workload.build" span
// (parsing + profiling a large upload is real time a whole-request
// histogram hides). It returns a core.Sampled for a threshold request
// and a core.SampledPartition for an N-device one (the cc and spmm
// workloads are both; search picks the path from req.devices). Two
// devices reuse the scalar build and its cache entry: the pair
// platform's workload is the two-device partition workload.
func (s *Server) buildWorkload(ctx context.Context, req *request) (any, error) {
	_, span := obs.StartSpan(ctx, "workload.build")
	defer span.Finish()
	span.SetAttr("workload", req.workload)
	span.SetAttr("input", req.input)
	if req.devices >= 3 {
		span.SetAttr("devices", strconv.Itoa(req.devices))
	}
	w, err := s.build(span, req)
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	return w, nil
}

// build is buildWorkload's body, recording the build-cache outcome.
func (s *Server) build(span *obs.Span, req *request) (any, error) {
	if req.body != nil {
		coo, err := mmio.ReadStructure(bytes.NewReader(req.body), s.cfg.MaxUploadBytes)
		if err != nil {
			if errors.Is(err, mmio.ErrTooLarge) {
				return nil, &httpError{code: http.StatusRequestEntityTooLarge, err: err}
			}
			return nil, badRequest("parsing upload: %v", err)
		}
		m, err := sparse.FromCOO(coo)
		if err != nil {
			return nil, badRequest("building matrix: %v", err)
		}
		w, err := newWorkload(req.platform, req.workload, req.input, upload{m})
		if err != nil {
			return nil, badRequest("%v", err)
		}
		// Uploads bypass the build cache (one-shot bodies are not worth
		// keying), but they are still real constructions: count them so
		// batch summaries report build work for upload items too.
		s.metrics.BuildMisses.Inc()
		span.SetAttr("cache", "bypass")
		return w, nil
	}
	// Dataset builds go through the build cache: the replica population
	// is fixed, so re-parsing the same graph/matrix on every result-
	// cache miss is pure waste. Concurrent misses coalesce into one
	// build; followers count as hits.
	w, hit, err := s.builds.get(buildKey(req.platform, req.workload, req.input), func() (any, error) {
		d, err := datasets.ByName(req.input)
		if err != nil {
			return nil, err
		}
		return newWorkload(req.platform, req.workload, d.Name, d)
	})
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if hit {
		s.metrics.BuildHits.Inc()
		span.SetAttr("cache", "hit")
	} else {
		s.metrics.BuildMisses.Inc()
		span.SetAttr("cache", "miss")
	}
	return w, nil
}

// errorBody renders the JSON error payload, echoing the request's
// correlation ID so a client can quote it when reporting a failure.
func errorBody(ctx context.Context, err error) map[string]string {
	body := map[string]string{"error": err.Error()}
	if id := obs.RequestID(ctx); id != "" {
		body["request_id"] = id
	}
	return body
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Group string `json:"group"`
		N     int    `json:"n"`
		NNZ   int    `json:"nnz"`
	}
	var out []entry
	for _, d := range datasets.All() {
		out = append(out, entry{Name: d.Name, Group: d.Group, N: d.N(), NNZ: d.NNZ()})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
