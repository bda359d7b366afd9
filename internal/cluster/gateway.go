package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// Gateway defaults.
const (
	DefaultHealthInterval  = 2 * time.Second
	DefaultHealthTimeout   = time.Second
	DefaultMaxAttempts     = 3
	DefaultRetryBase       = 25 * time.Millisecond
	DefaultRetryMax        = time.Second
	DefaultUpstreamTimeout = 90 * time.Second
	// maxUpstreamResponse caps buffered upstream bodies; estimation
	// answers are small JSON, so 8 MiB is generous.
	maxUpstreamResponse = 8 << 20
)

// Config controls a Gateway.
type Config struct {
	// Backends are the hetserve base URLs fronted by the gateway.
	Backends []string
	// VNodes is the consistent-hash virtual-node count per backend;
	// <= 0 means DefaultVNodes.
	VNodes int
	// HealthInterval is the /healthz probe period; <= 0 means
	// DefaultHealthInterval.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe; <= 0 means DefaultHealthTimeout.
	HealthTimeout time.Duration
	// BreakerThreshold is consecutive failures before a backend's
	// breaker opens; <= 0 means DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is the open-state hold time before a half-open
	// probe; <= 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// MaxAttempts bounds tries per request across backends; <= 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts (full jitter); <= 0 means the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration
	// UpstreamTimeout bounds one coalesced upstream call end to end
	// (all retries included); <= 0 means DefaultUpstreamTimeout.
	UpstreamTimeout time.Duration
	// MaxBodyBytes caps client POST bodies; <= 0 means
	// serve.DefaultMaxUpload.
	MaxBodyBytes int64
	// Logger receives structured log records (request lines, probe
	// failures, upstream errors) with trace/request IDs attached from
	// the context; nil discards them.
	Logger *slog.Logger
	// Seed seeds the gateway's jitter RNG so retry/backoff schedules
	// are reproducible across runs; 0 means DefaultSeed.
	Seed int64
	// SpanCapacity bounds the span sink's ring buffer; <= 0 means
	// obs.DefaultSinkCapacity.
	SpanCapacity int
	// EnablePprof registers net/http/pprof under /debug/pprof/.
	// Off by default: profiling endpoints expose heap contents.
	EnablePprof bool
	// Faults wraps the upstream client with deterministic fault
	// injection (chaos testing). Rule backend indexes refer to positions
	// in Backends; nil disables. Wrapping the transport rather than the
	// backends means embedded and remote clusters are faulted the same
	// way.
	Faults *resilience.Faults
}

// DefaultSeed seeds the backoff-jitter RNG when Config.Seed is zero.
const DefaultSeed = 1

var errNoBackendAvailable = errors.New("no backend available (all circuit breakers open)")

// Gateway fronts N hetserve replicas: it shards /estimate by input
// fingerprint on a consistent-hash ring, guards each backend with a
// circuit breaker fed by traffic and health probes, retries failed
// attempts on the next replica with backoff+jitter, and coalesces
// identical concurrent requests into one upstream call. A slow answer
// is waited for, never duplicated: an estimate is a deterministic
// function of its input, so a second replica could only compute it
// again.
type Gateway struct {
	cfg    Config
	ring   *Ring
	client *http.Client

	mu       sync.RWMutex
	breakers map[string]*Breaker

	flight  flight.Group
	metrics *Metrics
	sink    *obs.Sink
	logger  *slog.Logger
	mux     *http.ServeMux

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds a Gateway over cfg.Backends.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = DefaultHealthTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.UpstreamTimeout <= 0 {
		cfg.UpstreamTimeout = DefaultUpstreamTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = serve.DefaultMaxUpload
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	metrics := NewMetrics()
	g := &Gateway{
		cfg:      cfg,
		ring:     NewRing(cfg.VNodes),
		breakers: make(map[string]*Breaker),
		metrics:  metrics,
		sink:     obs.NewSink(cfg.SpanCapacity, metrics.stages),
		logger:   cfg.Logger,
		mux:      http.NewServeMux(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	backendIndex := make(map[string]int, len(cfg.Backends))
	for i, b := range cfg.Backends {
		u := strings.TrimRight(b, "/")
		if _, err := url.Parse(u); err != nil || u == "" {
			return nil, fmt.Errorf("cluster: bad backend URL %q", b)
		}
		g.ring.Add(u)
		g.breakers[u] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		backendIndex[hostKey(u)] = i
	}
	var transport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 16}
	if cfg.Faults != nil {
		// Fault rules address backends by their position in
		// cfg.Backends; requests to anything else (never the case today)
		// match only backend=* rules.
		transport = cfg.Faults.Transport(transport, func(r *http.Request) int {
			if i, ok := backendIndex[r.URL.Scheme+"://"+r.URL.Host]; ok {
				return i
			}
			return -1
		})
	}
	g.client = &http.Client{Transport: transport}
	g.metrics.breakerStates = g.BreakerStates
	// The proxied routes get the full middleware (request IDs, gateway
	// spans, request log lines); /healthz and /metrics stay bare so
	// scrapes and probes don't flood the span ring.
	ho := obs.HTTPOptions{Service: "hetgate", Sink: g.sink, Logger: g.logger}
	g.mux.Handle("/estimate", obs.Handler(ho, "http.estimate", http.HandlerFunc(g.handleEstimate)))
	g.mux.Handle("/estimate-batch", obs.Handler(ho, "http.estimate_batch", http.HandlerFunc(g.handleEstimateBatch)))
	g.mux.Handle("/datasets", obs.Handler(ho, "http.datasets", http.HandlerFunc(g.handleDatasets)))
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.Handle("/debug/spans", g.sink.Handler())
	if cfg.EnablePprof {
		obs.RegisterPprof(g.mux)
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the registry (tests and the bench ledger).
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Sink exposes the span sink (tests, trace assertions).
func (g *Gateway) Sink() *obs.Sink { return g.sink }

// Backends returns the ring membership.
func (g *Gateway) Backends() []string { return g.ring.Members() }

func (g *Gateway) breaker(backend string) *Breaker {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.breakers[backend]
}

// BreakerStates snapshots every backend's breaker position.
func (g *Gateway) BreakerStates() map[string]BreakerState {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]BreakerState, len(g.breakers))
	for b, br := range g.breakers {
		out[b] = br.State()
	}
	return out
}

// Run drives the health prober until ctx is done. The first sweep runs
// immediately so breakers reflect reality before traffic arrives.
func (g *Gateway) Run(ctx context.Context) {
	g.probeAll(ctx)
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probeAll(ctx)
		}
	}
}

// probeAll checks /healthz on every backend whose breaker admits a
// request. For an open breaker Allow is the cooldown gate, so the
// probe doubles as the half-open trial and a recovered backend closes
// its breaker without waiting for live traffic.
func (g *Gateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range g.ring.Members() {
		br := g.breaker(b)
		if !br.Allow() {
			continue
		}
		wg.Add(1)
		go func(backend string, br *Breaker) {
			defer wg.Done()
			ok := g.probe(ctx, backend)
			br.Record(ok)
			outcome := "ok"
			if !ok {
				outcome = "fail"
			}
			g.metrics.Probes.With(backend, outcome).Inc()
			if !ok {
				g.logger.Warn("health probe failed",
					slog.String("backend", backend),
					slog.String("breaker", br.State().String()))
			}
		}(b, br)
	}
	wg.Wait()
}

func (g *Gateway) probe(ctx context.Context, backend string) bool {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	open := 0
	states := g.BreakerStates()
	for _, s := range states {
		if s == BreakerOpen {
			open++
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if open == len(states) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: all %d backends open\n", open)
		return
	}
	fmt.Fprintf(w, "ok (%d/%d backends available)\n", len(states)-open, len(states))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := g.metrics.WriteTo(w); err != nil {
		g.logger.Error("writing metrics", slog.Any("err", err))
	}
}

// handleDatasets proxies the replica catalog from the first available
// backend — it is identical on all of them.
func (g *Gateway) handleDatasets(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.HealthTimeout*4)
	defer cancel()
	var lastErr error = errNoBackendAvailable
	for _, b := range g.ring.Replicas("datasets", g.ring.Len()) {
		br := g.breaker(b)
		if !br.Allow() {
			continue
		}
		res, err := g.do(ctx, b, http.MethodGet, "/datasets", "", nil)
		if err == nil {
			writeUpstream(w, res)
			return
		}
		lastErr = err
	}
	writeError(r.Context(), w, http.StatusBadGateway, lastErr)
}

// upstreamResult is one buffered backend answer, replayable to every
// coalesced waiter.
type upstreamResult struct {
	status      int
	contentType string
	body        []byte
	backend     string
	// storeMode is the backend's X-Hetserve-Store header ("skip" or
	// "warm") when the answer came through the threshold-store
	// transfer path.
	storeMode string
}

func writeUpstream(w http.ResponseWriter, res *upstreamResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.Header().Set("X-Hetgate-Backend", res.backend)
	if res.storeMode != "" {
		w.Header().Set(serve.StoreHeader, res.storeMode)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// writeError renders a JSON error body. The request ID from ctx (set
// by the obs middleware) is echoed so clients can quote it when
// reporting failures.
func writeError(ctx context.Context, w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	if id := obs.RequestID(ctx); id != "" {
		fmt.Fprintf(w, "{\n  \"error\": %q,\n  \"request_id\": %q\n}\n", err.Error(), id)
		return
	}
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", err.Error())
}

// handleEstimate shards one estimation request: derive the routing key
// from the input fingerprint, coalesce with identical in-flight
// requests, then forward along the key's replica chain.
func (g *Gateway) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(r.Context(), w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		b, err := serve.ReadBody(w, r, g.cfg.MaxBodyBytes)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(r.Context(), w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("upload exceeds %d bytes", g.cfg.MaxBodyBytes))
				return
			}
			writeError(r.Context(), w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
			return
		}
		body = b
	}

	q := r.URL.Query()
	key := routingKey(q, body)

	// Coalescing must distinguish requests that differ in any estimation
	// parameter, so the flight key adds the canonicalized query string.
	flightKey := key + "|" + canonicalQuery(q)

	v, err, leader := g.flight.Do(flightKey, func() (any, error) {
		// Detached context: the upstream call outlives any single
		// waiter, so one impatient client cannot fail the whole herd.
		// obs.Detach keeps the leader's span/request identity so the
		// forward and upstream spans land in the leader's trace.
		ctx, cancel := context.WithTimeout(obs.Detach(r.Context()), g.cfg.UpstreamTimeout)
		defer cancel()
		ctx, sp := obs.StartSpan(ctx, "forward")
		sp.SetAttr("key", key)
		res, err := g.forward(ctx, r.Method, r.URL.RawQuery, body, key)
		if err != nil {
			sp.RecordError(err)
		} else {
			sp.SetAttr("backend", res.backend)
		}
		sp.Finish()
		return res, err
	})
	if !leader {
		g.metrics.Coalesced.Inc()
		obs.SpanFromContext(r.Context()).SetAttr("coalesced", "true")
	}
	if err != nil {
		code := http.StatusBadGateway
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
			g.metrics.DeadlineExceeded.Inc()
		}
		g.logger.ErrorContext(r.Context(), "estimate failed",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Any("err", err))
		writeError(r.Context(), w, code, err)
		return
	}
	res := v.(*upstreamResult)
	if !leader {
		w.Header().Set("X-Hetgate-Coalesced", "true")
	}
	writeUpstream(w, res)
}

// routingKey is the same input identity hetserve keys its LRU by, so
// a given input always lands on the replica whose cache already holds
// it. Partition-vector requests (?devices=N) join the key: the backend
// builds and caches a different workload per device count, so pinning
// each (input, devices) pair to its own replica chain keeps both the
// result LRU and the build cache hot — scalar and partition traffic
// over the same input shard independently. The count is keyed as the
// integer hetserve parses (02 and +2 are 2); a value that does not
// parse stays raw, and the backend answers it 400.
func routingKey(q url.Values, body []byte) string {
	key := batch.InputKey(q.Get("dataset"), body)
	if d := q.Get("devices"); d != "" {
		if n, err := strconv.Atoi(d); err == nil {
			d = strconv.Itoa(n)
		}
		key += "|devices=" + d
	}
	return key
}

// canonicalQuery renders query parameters in sorted order so two
// requests that differ only in parameter order share a flight key.
func canonicalQuery(q url.Values) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		vs := append([]string(nil), q[k]...)
		sort.Strings(vs)
		for _, v := range vs {
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(v)
			sb.WriteByte('&')
		}
	}
	return sb.String()
}

// forward walks key's replica chain: try the owner, and on failure
// back off (with full jitter) and retry the next candidate, up to
// MaxAttempts attempts.
func (g *Gateway) forward(ctx context.Context, method, rawQuery string, body []byte, key string) (*upstreamResult, error) {
	order := g.ring.Replicas(key, g.ring.Len())
	if len(order) == 0 {
		return nil, errNoBackendAvailable
	}
	// pick returns the next candidate in ring order whose breaker
	// admits a request; half-open probe slots are consumed here, right
	// before the try, never speculatively.
	next := 0
	pick := func() (string, bool) {
		for i := 0; i < len(order); i++ {
			b := order[next%len(order)]
			next++
			if g.breaker(b).Allow() {
				return b, true
			}
		}
		return "", false
	}

	var lastErr error = errNoBackendAvailable
	for attempt := 0; attempt < g.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			g.metrics.Retries.Inc()
			obs.SpanFromContext(ctx).SetAttr("retries", strconv.Itoa(attempt))
			if err := sleepCtx(ctx, g.backoff(attempt)); err != nil {
				return nil, fmt.Errorf("%w (last error: %v)", err, lastErr)
			}
		}
		if rem, ok := resilience.Remaining(ctx); ok && rem < resilience.MinBudget {
			// Not enough budget left for a backend to do any work:
			// dispatching another attempt only manufactures late answers.
			return nil, fmt.Errorf("%w: budget %v below minimum %v (last error: %v)",
				context.DeadlineExceeded, rem, resilience.MinBudget, lastErr)
		}
		backend, ok := pick()
		if !ok {
			// Every breaker is open; the backoff sleep above may let a
			// cooldown elapse, so keep trying until attempts run out.
			lastErr = errNoBackendAvailable
			continue
		}
		res, err := g.do(ctx, backend, method, "/estimate", rawQuery, body)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("all %d attempts failed: %w", g.cfg.MaxAttempts, lastErr)
}

// backoff returns the sleep before retry round attempt (1-based) using
// exponential growth with full jitter, capped at RetryMax.
func (g *Gateway) backoff(attempt int) time.Duration {
	d := g.cfg.RetryBase << (attempt - 1)
	if d > g.cfg.RetryMax || d <= 0 {
		d = g.cfg.RetryMax
	}
	g.rngMu.Lock()
	j := time.Duration(g.rng.Int63n(int64(d) + 1))
	g.rngMu.Unlock()
	return j
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do performs one upstream HTTP call and feeds the backend's breaker:
// transport errors, 5xx answers and 429 sheds count as failures,
// everything else (including other 4xx — the backend is healthy, the
// request is bad) as success. A call cut short by the caller's context
// is not held against the backend. The remaining ctx budget is stamped
// on the request as X-Deadline-Ms, so each retry hands the backend a
// naturally smaller budget and late work is cancelled server-side.
func (g *Gateway) do(ctx context.Context, backend, method, path, rawQuery string, body []byte) (*upstreamResult, error) {
	u := backend + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	ctx, sp := obs.StartSpan(ctx, "upstream")
	sp.SetAttr("backend", backend)
	sp.SetAttr("http.path", path)
	fail := func(err error) (*upstreamResult, error) {
		sp.RecordError(err)
		sp.Finish()
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return fail(fmt.Errorf("building request for %s: %w", backend, err))
	}
	// Propagate the trace and request identity so the backend's spans
	// join this trace instead of starting their own.
	obs.Inject(ctx, req.Header)
	if rem, ok := resilience.Remaining(ctx); ok {
		resilience.SetBudget(req.Header, rem)
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			g.breaker(backend).Release()
			return fail(ctx.Err())
		}
		g.breaker(backend).Record(false)
		g.metrics.Upstream(backend, 0, time.Since(start))
		return fail(fmt.Errorf("backend %s: %w", backend, err))
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamResponse))
	if err != nil {
		if ctx.Err() != nil {
			g.breaker(backend).Release()
			return fail(ctx.Err())
		}
		g.breaker(backend).Record(false)
		g.metrics.Upstream(backend, 0, time.Since(start))
		return fail(fmt.Errorf("backend %s: reading response: %w", backend, err))
	}
	g.metrics.Upstream(backend, resp.StatusCode, time.Since(start))
	sp.SetAttr("http.status", strconv.Itoa(resp.StatusCode))
	if resp.StatusCode == http.StatusTooManyRequests {
		// The backend shed us: count it, feed the breaker's shed streak
		// (backpressure, not a transport failure — see RecordShed), and
		// fail the attempt so forward retries the next replica.
		g.metrics.Shed(backend)
		g.breaker(backend).RecordShed()
		sp.SetAttr("shed", "true")
		return fail(fmt.Errorf("backend %s: shed (HTTP 429): %s", backend, firstLine(b)))
	}
	if resp.StatusCode >= 500 {
		g.breaker(backend).Record(false)
		return fail(fmt.Errorf("backend %s: HTTP %d: %s", backend, resp.StatusCode, firstLine(b)))
	}
	g.breaker(backend).Record(true)
	res := &upstreamResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        b,
		backend:     backend,
	}
	if mode := resp.Header.Get(serve.StoreHeader); mode != "" {
		// The backend answered through its threshold store — a verified
		// skip or a warm-started search — so the gateway can report
		// per-backend transfer rates without parsing bodies.
		res.storeMode = mode
		g.metrics.StoreTransfers.With(backend, mode).Inc()
		sp.SetAttr("store", mode)
	}
	sp.Finish()
	return res, nil
}

// hostKey reduces a backend base URL to the scheme://host form the
// fault transport sees on outgoing requests.
func hostKey(backend string) string {
	u, err := url.Parse(backend)
	if err != nil {
		return backend
	}
	return u.Scheme + "://" + u.Host
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
