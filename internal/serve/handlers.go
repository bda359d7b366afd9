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
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
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
	// Stale reports a cache entry older than Config.StaleAfter, served
	// immediately while a background revalidation refreshes it.
	Stale bool `json:"stale,omitempty"`
	// Degraded marks a graceful-degradation answer: the request was
	// shed under overload and answered from a stale cache entry or the
	// NaiveStatic fallback instead of a fresh pipeline run.
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
	// Features is the input's structural feature vector in wire form
	// (see store.ParseFeatures); present when the store is enabled.
	Features string `json:"features,omitempty"`

	// WallMS is the server-side handling time of this request.
	WallMS float64 `json:"wall_ms"`
}

// DegradedHeader marks degraded responses so the gateway (and clients)
// can count them without parsing the JSON body.
const DegradedHeader = "X-Hetserve-Degraded"

// cacheEntry is what the result cache stores: the response plus its
// birth time, which drives the stale-while-revalidate policy.
type cacheEntry struct {
	resp EstimateResponse
	at   time.Time
}

// stale reports whether a cache entry born at "at" has outlived
// Config.StaleAfter (0 disables staleness).
func (s *Server) stale(at time.Time) bool {
	return s.cfg.StaleAfter > 0 && time.Since(at) > s.cfg.StaleAfter
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
		var he *httpError
		if errors.As(err, &he) {
			code = he.code
		} else {
			code = statusFor(err)
		}
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

	seed := uint64(42)
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, badRequest("bad seed %q: %v", v, err)
		}
		seed = n
	}
	repeats := 3
	if v := q.Get("repeats"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 99 {
			return nil, badRequest("bad repeats %q (want 1..99)", v)
		}
		repeats = n
	}
	searcher, err := searcherFor(workload, q.Get("searcher"))
	if err != nil {
		return nil, badRequest("%v", err)
	}

	// ?devices=N switches the pipeline to N-device partition-vector
	// estimation. devices == 0 is the legacy scalar threshold path.
	devices := 0
	if v := q.Get("devices"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 || n > MaxEstimateDevices {
			return nil, badRequest("bad devices %q (want 2..%d)", v, MaxEstimateDevices)
		}
		devices = n
	}
	var mp *hetsim.MultiPlatform
	if devices > 0 {
		if workload == WorkloadScaleFree {
			return nil, badRequest("workload %q does not support partition vectors (want %s or %s)",
				workload, WorkloadCC, WorkloadSpMM)
		}
		if devices >= 3 {
			mp, err = s.multiPlatform(devices)
			if err != nil {
				return nil, err
			}
		}
		// devices == 2 runs AsPartition over the scalar two-device
		// workload — bit-identical to the scalar search by construction,
		// so it needs no multi-platform inventory.
	}

	// Resolve the input: an uploaded MatrixMarket body (POST) or a
	// named Table II dataset (GET).
	var (
		input string // reported name
		key   string // cache key component identifying the input
		body  []byte
	)
	if r.Method == http.MethodPost {
		body, err = ReadBody(w, r, s.cfg.MaxUploadBytes)
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
		fp := Fingerprint(body)
		input, key = "upload:"+fp, "upload:"+fp
	} else {
		name := q.Get("dataset")
		if name == "" {
			return nil, badRequest("missing ?dataset= (or POST a MatrixMarket body)")
		}
		if _, err := datasets.ByName(name); err != nil {
			return nil, &httpError{code: http.StatusNotFound, err: err}
		}
		input, key = name, "dataset:"+name
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

	cacheKey := strings.Join([]string{
		key, workload, searcher.Name(),
		strconv.FormatUint(seed, 10), strconv.Itoa(repeats),
		"d" + strconv.Itoa(devices),
	}, "|")
	_, cspan := obs.StartSpan(r.Context(), "cache.lookup")
	v, hit := s.cache.Get(cacheKey)
	cspan.SetAttr("hit", strconv.FormatBool(hit))
	cspan.Finish()
	if hit {
		e := v.(cacheEntry)
		resp := e.resp // copy; Cached/Stale/WallMS are per-request
		resp.Cached = true
		s.metrics.CacheHits.Inc()
		s.stampStoreHeaders(w, &resp)
		if !s.stale(e.at) {
			return &resp, nil
		}
		// Stale-while-revalidate: answer from the stale entry now and
		// refresh it off the request path. The refresh goes through the
		// same singleflight and admission gates as a foreground miss,
		// so a thundering herd of stale hits buys exactly one pipeline
		// run — and none at all under overload.
		s.metrics.StaleServed.Inc()
		resp.Stale = true
		s.revalidate(cacheKey, workload, input, body, searcher, seed, repeats, devices, mp)
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
	// A client (or gateway) that already knows the upload's structural
	// features may send them along; the hint only steers the store
	// lookup, so a malformed header is ignored rather than rejected.
	var hint *store.Features
	if v := r.Header.Get(FeaturesHeader); v != "" && s.store != nil {
		if f, err := store.ParseFeatures(v); err == nil {
			hint = &f
		}
	}

	v, err, leader := s.flight.Do(cacheKey, func() (any, error) {
		s.metrics.CacheMisses.Inc()
		// Anchored at arrival, not here: with a propagated budget this
		// server must give up strictly before its caller does, even when
		// reading the upload ate a slice of the budget already.
		ctx, cancel := context.WithDeadline(r.Context(), start.Add(timeout))
		defer cancel()
		if devices > 0 {
			return s.runPartitionPipeline(ctx, cacheKey, workload, input, body, mp, devices, searcher, seed, repeats)
		}
		return s.runPipeline(ctx, cacheKey, workload, input, body, searcher, seed, repeats, hint)
	})
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			if resp, ok := s.shedFallback(w, cacheKey, workload, input, searcher, seed, devices, mp); ok {
				return resp, nil
			}
			// No degraded answer available: shed honestly with
			// backpressure advice scaled to the backlog.
			w.Header().Set("Retry-After",
				strconv.Itoa(int(s.admission.RetryAfter().Round(time.Second).Seconds())))
		}
		return nil, err
	}
	resp := *(v.(*EstimateResponse)) // copy; Coalesced/WallMS are per-request
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

// stampStoreHeaders surfaces the transfer outcome as response headers
// so the gateway can count per-backend transfer rates without parsing
// bodies. Only freshly computed answers are stamped: a cached copy of
// a transferred response did not transfer anything this time.
func (s *Server) stampStoreHeaders(w http.ResponseWriter, resp *EstimateResponse) {
	if resp.Features != "" {
		w.Header().Set(FeaturesHeader, resp.Features)
	}
	if resp.Cached || resp.Coalesced {
		return
	}
	if resp.Transferred {
		w.Header().Set(StoreHeader, "skip")
	} else if resp.WarmStarted {
		w.Header().Set(StoreHeader, "warm")
	}
}

// shedFallback builds the graceful-degradation answer for a shed
// request: a (possibly stale) cache entry when one exists, otherwise —
// when Config.DegradeOnShed allows — the platform's NaiveStatic
// threshold. Both are marked "degraded":true, and the response header
// lets the gateway count degraded answers without parsing bodies.
func (s *Server) shedFallback(w http.ResponseWriter, cacheKey, workload, input string, searcher core.Searcher, seed uint64, devices int, mp *hetsim.MultiPlatform) (*EstimateResponse, bool) {
	if !s.cfg.DegradeOnShed {
		return nil, false
	}
	var resp EstimateResponse
	if v, ok := s.cache.Get(cacheKey); ok {
		// Only a stale entry can reach here — a fresh one was served
		// before admission — but any cached estimate beats a static
		// guess.
		e := v.(cacheEntry)
		resp = e.resp
		resp.Cached = true
		resp.Stale = s.stale(e.at)
	} else {
		// NaiveStatic: the paper's static-split baseline — the
		// platform's relative device speeds decide the split, no
		// sampling at all. Crude, but O(1) and always available. For a
		// partition request the fallback is the FLOPS-ratio vector.
		resp = EstimateResponse{
			Workload: workload,
			Input:    input,
			Searcher: "naive-static(fallback)",
			Seed:     seed,
		}
		if devices > 0 {
			resp.Devices = devices
			resp.Partition = s.naiveStaticPartition(devices, mp)
			resp.NaiveStaticPartition = resp.Partition
		} else {
			resp.Threshold = 100 * s.platform.StaticCPUShare()
		}
	}
	resp.Degraded = true
	s.metrics.Degraded.Inc()
	w.Header().Set(DegradedHeader, "true")
	return &resp, true
}

// revalidate refreshes a stale cache entry off the request path. The
// background run is bounded by MaxTimeout, coalesces with any
// in-flight run for the same key, and passes through admission — so
// revalidation never competes unboundedly with foreground traffic.
func (s *Server) revalidate(cacheKey, workload, input string, body []byte, searcher core.Searcher, seed uint64, repeats, devices int, mp *hetsim.MultiPlatform) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
		defer cancel()
		_, err, _ := s.flight.Do(cacheKey, func() (any, error) {
			s.metrics.CacheMisses.Inc()
			if devices > 0 {
				return s.runPartitionPipeline(ctx, cacheKey, workload, input, body, mp, devices, searcher, seed, repeats)
			}
			return s.runPipeline(ctx, cacheKey, workload, input, body, searcher, seed, repeats, nil)
		})
		if err != nil && !errors.Is(err, resilience.ErrOverloaded) {
			s.logger.Warn("stale revalidation failed",
				slog.String("workload", workload),
				slog.String("input", input),
				slog.Any("err", err))
		}
	}()
}

// runPipeline executes the Sample → Identify → Extrapolate pipeline
// for one cache miss. Without a threshold store: pass admission,
// acquire a worker slot, build the workload, run the estimation, and
// cache the result. With one, the store path (runStorePipeline) builds
// first so the structural features can steer a transfer.
func (s *Server) runPipeline(ctx context.Context, cacheKey, workload, input string, body []byte, searcher core.Searcher, seed uint64, repeats int, hint *store.Features) (*EstimateResponse, error) {
	if s.store != nil {
		return s.runStorePipeline(ctx, cacheKey, workload, input, body, searcher, seed, repeats, hint)
	}
	// Admission first: the controller bounds the total estimated cost
	// (grid points × repeats) in flight and sheds instead of queuing
	// unboundedly, so a flood of expensive requests turns into fast
	// 429s rather than a deep queue of doomed work.
	release, err := s.admit(ctx, searchCost(searcher, repeats))
	if err != nil {
		return nil, err
	}
	defer release()

	if err := s.acquireWorker(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()

	cw, err := s.buildWorkload(ctx, workload, input, body)
	if err != nil {
		return nil, err
	}
	return s.searchAndRespond(ctx, cacheKey, workload, input, cw, searcher, seed, repeats, storeMeta{}, store.Neighbor{})
}

// multiPlatform resolves the device inventory for an N-device
// partition request. A configured inventory wins — then its device
// count is the only one the server answers for — otherwise the default
// CPU + (N-1) GPU cascade is built on demand (construction is a few
// struct literals; the build cache keys workloads by the inventory's
// signature, so equal inventories share builds).
func (s *Server) multiPlatform(devices int) (*hetsim.MultiPlatform, error) {
	if s.cfg.MultiPlatform != nil {
		if n := s.cfg.MultiPlatform.Devices(); n != devices {
			return nil, badRequest("devices=%d does not match the configured inventory (%d devices)", devices, n)
		}
		return s.cfg.MultiPlatform, nil
	}
	return hetsim.DefaultMulti(devices - 1), nil
}

// naiveStaticPartition is the FLOPS-ratio share vector for a partition
// request — the NaiveStatic baseline generalized to N devices.
func (s *Server) naiveStaticPartition(devices int, mp *hetsim.MultiPlatform) core.Partition {
	if mp != nil {
		return core.Partition(mp.StaticShares())
	}
	cpu := 100 * s.platform.StaticCPUShare()
	return core.Partition{cpu, 100 - cpu}
}

// buildPartitionWorkload constructs the N-device partition workload.
// Two devices reuse the scalar build (and its cache) behind the
// core.AsPartition adapter — that path is bit-identical to the scalar
// search; three or more build the multi-device workload over mp,
// cached by inventory signature for datasets.
func (s *Server) buildPartitionWorkload(ctx context.Context, workload, input string, body []byte, mp *hetsim.MultiPlatform, devices int) (core.SampledPartition, error) {
	if devices == 2 {
		cw, err := s.buildWorkload(ctx, workload, input, body)
		if err != nil {
			return nil, err
		}
		pw, ok := core.AsPartition(cw).(core.SampledPartition)
		if !ok {
			return nil, fmt.Errorf("workload %s does not support sampled partition estimation", cw.Name())
		}
		return pw, nil
	}
	_, span := obs.StartSpan(ctx, "workload.build")
	defer span.Finish()
	span.SetAttr("workload", workload)
	span.SetAttr("input", input)
	span.SetAttr("devices", strconv.Itoa(devices))
	fail := func(err error) (core.SampledPartition, error) {
		span.RecordError(err)
		return nil, err
	}
	if body != nil {
		coo, err := mmio.ReadStructure(bytes.NewReader(body), s.cfg.MaxUploadBytes)
		if err != nil {
			if errors.Is(err, mmio.ErrTooLarge) {
				return fail(&httpError{code: http.StatusRequestEntityTooLarge, err: err})
			}
			return fail(badRequest("parsing upload: %v", err))
		}
		m, err := sparse.FromCOO(coo)
		if err != nil {
			return fail(badRequest("building matrix: %v", err))
		}
		pw, err := buildMultiFromMatrix(mp, workload, input, m)
		if err != nil {
			return fail(badRequest("%v", err))
		}
		s.metrics.BuildMisses.Inc()
		span.SetAttr("cache", "bypass")
		return pw, nil
	}
	pw, hit, err := s.builds.getPartition(multiBuildKey(mp, workload, input), func() (core.SampledPartition, error) {
		return buildMultiFromDataset(mp, workload, input)
	})
	if err != nil {
		return fail(badRequest("%v", err))
	}
	if hit {
		s.metrics.BuildHits.Inc()
		span.SetAttr("cache", "hit")
	} else {
		s.metrics.BuildMisses.Inc()
		span.SetAttr("cache", "miss")
	}
	return pw, nil
}

// runPartitionPipeline executes Sample → Identify → Extrapolate over
// the N-device simplex for one cache miss. The threshold store never
// participates: its features-to-threshold transfer is scalar, and a
// partition answer warm-started from a scalar neighbor would not be.
// Admission is charged the simplex cost — the scalar search cost
// scaled by the axis count and the expected descent rounds.
func (s *Server) runPartitionPipeline(ctx context.Context, cacheKey, workload, input string, body []byte, mp *hetsim.MultiPlatform, devices int, searcher core.Searcher, seed uint64, repeats int) (*EstimateResponse, error) {
	release, err := s.admit(ctx, partitionSearchCost(searcher, repeats, devices))
	if err != nil {
		return nil, err
	}
	defer release()

	if err := s.acquireWorker(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()

	pw, err := s.buildPartitionWorkload(ctx, workload, input, body, mp, devices)
	if err != nil {
		return nil, err
	}
	ctx = core.WithEvalObserver(ctx, s.metrics)
	est, err := core.EstimatePartition(ctx, pw, core.Config{
		Searcher:    searcher,
		Seed:        seed,
		Repeats:     repeats,
		Parallelism: s.cfg.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("estimating %s: %w", pw.Name(), err)
	}
	_, espan := obs.StartSpan(ctx, "evaluate")
	s.metrics.EvalStarted()
	runTime, err := pw.EvaluatePartition(est.Partition)
	s.metrics.EvalDone()
	if err != nil {
		err = fmt.Errorf("evaluating %s at %s: %w", pw.Name(), est.Partition, err)
		espan.RecordError(err)
		espan.Finish()
		return nil, err
	}
	espan.SetAttr("partition", est.Partition.String())
	espan.SetAttr("simulated_run", runTime.String())
	espan.Finish()

	overhead := est.Overhead()
	resp := EstimateResponse{
		Workload:             workload,
		Input:                input,
		Searcher:             searcher.Name(),
		Seed:                 seed,
		Repeats:              est.Repeats,
		Devices:              devices,
		Partition:            est.Partition,
		SamplePartition:      est.SamplePartition,
		NaiveStaticPartition: s.naiveStaticPartition(devices, mp),
		Evals:                est.Evals,
		RunTimeNS:            int64(runTime),
		RunTime:              runTime.String(),
		SampleNS:             int64(est.SampleCost),
		IdentifyNS:           int64(est.IdentifyCost),
		OverheadNS:           int64(overhead),
		Overhead:             overhead.String(),
	}
	if overhead+runTime > 0 {
		resp.OverheadPct = 100 * float64(overhead) / float64(overhead+runTime)
	}
	s.cache.Put(cacheKey, cacheEntry{resp: resp, at: time.Now()})
	return &resp, nil
}

// runStorePipeline is runPipeline with the threshold store in the
// loop. The worker slot comes first — it bounds builds and probes as
// well as searches — and admission is charged per path: probeCost for
// a verified transfer, a window-scaled cost for a warm-started search,
// the full search cost for a cold run. A store hit therefore consumes
// no admission capacity beyond its probe, which is what lets a warm
// store keep answering while admission sheds fresh Identify work.
func (s *Server) runStorePipeline(ctx context.Context, cacheKey, workload, input string, body []byte, searcher core.Searcher, seed uint64, repeats int, hint *store.Features) (*EstimateResponse, error) {
	storeKey, _, _ := strings.Cut(cacheKey, "|")
	if err := s.acquireWorker(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()

	cw, err := s.buildWorkload(ctx, workload, input, body)
	if err != nil {
		return nil, err
	}
	meta, n := s.storeLookup(ctx, workload, storeKey, cw, hint)
	if meta.hit && s.store.CanSkip(n) {
		resp, ok, err := s.probeTransfer(ctx, cacheKey, workload, input, storeKey, cw, n, meta, searcher, seed, repeats, false)
		if err != nil {
			return nil, err
		}
		if ok {
			return resp, nil
		}
		// Probe rejected or shed: fall through to the warm path.
	}
	cost := searchCost(searcher, repeats)
	if meta.warm != nil {
		cost = warmSearchCost(searcher, repeats)
	}
	release, err := s.admit(ctx, cost)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.searchAndRespond(ctx, cacheKey, workload, input, cw, searcher, seed, repeats, meta, n)
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

// searchAndRespond runs the estimation search and the final full-input
// evaluation on a built workload, folds in the store bookkeeping, and
// caches the response. The caller holds admission and a worker slot.
func (s *Server) searchAndRespond(ctx context.Context, cacheKey, workload, input string, cw core.Sampled, searcher core.Searcher, seed uint64, repeats int, meta storeMeta, n store.Neighbor) (*EstimateResponse, error) {
	if meta.warm != nil {
		s.metrics.StoreWarmStarts.Inc()
	}
	// The metrics registry observes every Evaluate call the pipeline
	// makes — sequential or fanned out — for the in-flight gauge.
	ctx = core.WithEvalObserver(ctx, s.metrics)
	est, err := core.EstimateThreshold(ctx, cw, core.Config{
		Searcher:    searcher,
		Seed:        seed,
		Repeats:     repeats,
		Parallelism: s.cfg.Parallelism,
		WarmStart:   meta.warm,
	})
	if err != nil {
		return nil, fmt.Errorf("estimating %s: %w", cw.Name(), err)
	}
	_, espan := obs.StartSpan(ctx, "evaluate")
	s.metrics.EvalStarted()
	runTime, err := cw.Evaluate(est.Threshold)
	s.metrics.EvalDone()
	if err != nil {
		err = fmt.Errorf("evaluating %s at %.2f: %w", cw.Name(), est.Threshold, err)
		espan.RecordError(err)
		espan.Finish()
		return nil, err
	}
	espan.SetAttr("threshold", fmt.Sprintf("%.2f", est.Threshold))
	espan.SetAttr("simulated_run", runTime.String())
	espan.Finish()

	if s.cfg.Verbose {
		var tr hetsim.Trace
		tr.Add(hetsim.PhaseSample, "host", est.SampleCost)
		tr.Add(hetsim.PhaseIdentify, "host", est.IdentifyCost)
		tr.Add(hetsim.PhaseCompute, "het", runTime)
		s.logger.InfoContext(ctx, "estimated",
			slog.String("workload", cw.Name()),
			slog.Float64("threshold", est.Threshold),
			slog.Int("evals", est.Evals),
			slog.Int("samples", est.Repeats),
			slog.String("trace", tr.String()))
	}

	overhead := est.Overhead()
	resp := EstimateResponse{
		Workload:        workload,
		Input:           input,
		Searcher:        searcher.Name(),
		Seed:            seed,
		Repeats:         est.Repeats,
		Threshold:       est.Threshold,
		SampleThreshold: est.SampleThreshold,
		Evals:           est.Evals,
		RunTimeNS:       int64(runTime),
		RunTime:         runTime.String(),
		SampleNS:        int64(est.SampleCost),
		IdentifyNS:      int64(est.IdentifyCost),
		OverheadNS:      int64(overhead),
		Overhead:        overhead.String(),
	}
	if overhead+runTime > 0 {
		resp.OverheadPct = 100 * float64(overhead) / float64(overhead+runTime)
	}
	if s.store != nil && meta.hasFeatures {
		resp.Features = meta.features.String()
		if meta.hit {
			resp.StoreHit = true
			resp.StoreNeighbor = meta.neighbor
			resp.StoreDistance = meta.distance
		}
		if meta.warm != nil {
			resp.WarmStarted = true
			s.observeWarmOutcome(workload, n, meta, est)
		}
		// Record this input's own verified result so structurally
		// similar future inputs can transfer from it. storeKey is the
		// cache key's input component — the part before the first "|".
		storeKey, _, _ := strings.Cut(cacheKey, "|")
		s.store.Put(workload, storeKey, s.platformSig, meta.features, est.Threshold, int64(runTime))
	}
	s.cache.Put(cacheKey, cacheEntry{resp: resp, at: time.Now()})
	return &resp, nil
}

// buildWorkload constructs the estimation workload from an uploaded
// MatrixMarket body or a named dataset, under a "workload.build" span
// (parsing + profiling a large upload is real time a whole-request
// histogram hides).
func (s *Server) buildWorkload(ctx context.Context, workload, input string, body []byte) (core.Sampled, error) {
	_, span := obs.StartSpan(ctx, "workload.build")
	defer span.Finish()
	span.SetAttr("workload", workload)
	span.SetAttr("input", input)
	fail := func(err error) (core.Sampled, error) {
		span.RecordError(err)
		return nil, err
	}
	if body != nil {
		coo, err := mmio.ReadStructure(bytes.NewReader(body), s.cfg.MaxUploadBytes)
		if err != nil {
			if errors.Is(err, mmio.ErrTooLarge) {
				return fail(&httpError{code: http.StatusRequestEntityTooLarge, err: err})
			}
			return fail(badRequest("parsing upload: %v", err))
		}
		m, err := sparse.FromCOO(coo)
		if err != nil {
			return fail(badRequest("building matrix: %v", err))
		}
		cw, err := buildFromMatrix(s.platform, workload, input, m)
		if err != nil {
			return fail(badRequest("%v", err))
		}
		// Uploads bypass the build cache (one-shot bodies are not worth
		// keying), but they are still real constructions: count them so
		// batch summaries report build work for upload items too.
		s.metrics.BuildMisses.Inc()
		span.SetAttr("cache", "bypass")
		return cw, nil
	}
	// Dataset builds go through the build cache: the replica population
	// is fixed, so re-parsing the same graph/matrix on every result-
	// cache miss is pure waste. Concurrent misses coalesce into one
	// build; followers count as hits.
	cw, hit, err := s.builds.get(buildKey(s.platform, workload, input), func() (core.Sampled, error) {
		return buildFromDataset(s.platform, workload, input)
	})
	if err != nil {
		return fail(badRequest("%v", err))
	}
	if hit {
		s.metrics.BuildHits.Inc()
		span.SetAttr("cache", "hit")
	} else {
		s.metrics.BuildMisses.Inc()
		span.SetAttr("cache", "miss")
	}
	return cw, nil
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
