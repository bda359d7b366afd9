// Package serve implements hetserve, the threshold-estimation daemon.
//
// The paper's Sample → Identify → Extrapolate framework makes
// threshold selection cheap enough to run online, per input — so this
// package serves core.EstimateThreshold (and, for ?devices=N,
// core.EstimatePartition) over HTTP: clients ask "how should I split
// this matrix/graph across devices?" and get the estimated threshold
// or partition with overhead accounting as JSON.
//
// Every request — /estimate or one /estimate-batch item — resolves to
// one request value with one cache key, and every cache miss runs the
// one miss path (run): build, store lookup, probe-verified transfer or
// search, cache.
//
// Internals: a bounded worker Pool feeds the estimation pipeline, an
// LRU result cache keyed by (input fingerprint, workload, seed,
// searcher config) answers repeated inputs from memory, identical
// concurrent requests coalesce into a single pipeline run
// (singleflight on the cache key), constructed dataset workloads are
// kept in a build cache so result-cache misses stop re-parsing the
// replicas, and Metrics exposes request counts, cache hit ratios,
// coalesce counts, in-flight gauges (requests and threshold
// evaluations) and per-workload latency histograms at /metrics — all
// standard library.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/flight"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
)

// Config controls a Server.
type Config struct {
	// Workers bounds concurrent estimations; <= 0 means GOMAXPROCS.
	Workers int
	// Parallelism bounds concurrent threshold evaluations inside one
	// estimation pipeline (core.Config.Parallelism); results are
	// identical at any setting. <= 0 means GOMAXPROCS. Daemons default
	// the flag to 1: under load the worker pool already saturates the
	// cores, so intra-pipeline parallelism only helps lightly loaded
	// servers working on expensive workloads (see README).
	Parallelism int
	// CacheSize is the LRU result-cache capacity; <= 0 disables it.
	CacheSize int
	// MaxUploadBytes caps POST bodies; <= 0 means DefaultMaxUpload.
	MaxUploadBytes int64
	// MaxTimeout caps the per-request deadline; requests may ask for
	// less via ?timeout=. <= 0 means DefaultMaxTimeout.
	MaxTimeout time.Duration
	// Logger receives structured log records (request lines, pipeline
	// errors) with trace/request IDs attached from the context; nil
	// discards them.
	Logger *slog.Logger
	// SpanCapacity bounds the span sink's ring buffer; <= 0 means
	// obs.DefaultSinkCapacity.
	SpanCapacity int
	// EnablePprof registers net/http/pprof under /debug/pprof/.
	// Off by default: profiling endpoints expose heap contents.
	EnablePprof bool

	// AdmissionLimit bounds the total estimated cost (grid points ×
	// repeats) of pipeline runs in flight; <= 0 means
	// resilience.DefaultAdmissionLimit. A request dearer than the whole
	// limit still runs, alone.
	AdmissionLimit int64
	// AdmissionQueue bounds requests waiting for admission; beyond it
	// requests are shed with 429. 0 means
	// resilience.DefaultAdmissionQueue; negative disables queuing
	// entirely (every over-capacity request sheds immediately).
	AdmissionQueue int
	// DegradeOnShed serves a degraded answer instead of 429 when a
	// request is shed: a cache entry when one exists, otherwise
	// the platform's NaiveStatic threshold, both marked
	// "degraded":true.
	DegradeOnShed bool

	// Store is the structure-keyed threshold store (hetstore); nil
	// disables cross-input transfer. The store may be shared by many
	// Servers (an embedded cluster shares one process-wide store).
	Store *store.Store

	// BatchMaxItems caps items per /estimate-batch job; <= 0 means
	// batch.DefaultMaxItems. Oversized jobs are rejected with a
	// structured 413 so one job cannot starve the admission queue.
	BatchMaxItems int
	// BatchMaxBytes caps an /estimate-batch request body (manifest +
	// uploads together); <= 0 means MaxUploadBytes.
	BatchMaxBytes int64
}

// Defaults for Config zero values.
const (
	DefaultMaxUpload  = 64 << 20 // 64 MiB
	DefaultMaxTimeout = 60 * time.Second
	DefaultCacheSize  = 256
)

// Server is the hetserve HTTP daemon: estimation handlers plus the
// pool, cache, metrics, span sink and logger they share.
type Server struct {
	cfg Config
	// platform is the device pair; cascades[n] is the default n-device
	// inventory for 3 <= n <= MaxEstimateDevices, built once.
	platform  *hetsim.Platform
	cascades  [MaxEstimateDevices + 1]*hetsim.Platform
	pool      *Pool
	admission *resilience.Admission
	cache     *LRU
	builds    *buildCache
	flight    flight.Group
	metrics   *Metrics
	sink      *obs.Sink
	logger    *slog.Logger
	mux       *http.ServeMux

	// Threshold-store state (nil store disables the transfer path).
	store       *store.Store
	platformSig string
	featMu      sync.Mutex
	feats       map[string]store.Features
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUpload
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	// The admission queue sits in front of the worker pool: 0 keeps the
	// package default, negative means "shed instead of queuing at all".
	queue := cfg.AdmissionQueue
	if queue == 0 {
		queue = resilience.DefaultAdmissionQueue
	} else if queue < 0 {
		queue = 0
	}
	metrics := NewMetrics()
	s := &Server{
		cfg:       cfg,
		platform:  hetsim.Default(),
		pool:      NewPool(cfg.Workers),
		admission: resilience.NewAdmission(cfg.AdmissionLimit, queue),
		cache:     NewLRU(cfg.CacheSize),
		builds:    newBuildCache(),
		metrics:   metrics,
		sink:      obs.NewSink(cfg.SpanCapacity, metrics.stages),
		logger:    cfg.Logger,
		mux:       http.NewServeMux(),
	}
	for n := 3; n <= MaxEstimateDevices; n++ {
		s.cascades[n] = hetsim.DefaultMulti(n - 1)
	}
	s.store = cfg.Store
	s.platformSig = s.platform.Signature()
	s.feats = make(map[string]store.Features)
	if s.store != nil {
		s.metrics.SetStoreStats(s.store.Len)
	}
	s.metrics.SetCacheStats(s.cache.Stats)
	s.metrics.SetAdmissionStats(func() AdmissionStats {
		return AdmissionStats{
			QueueDepth: s.admission.Depth(),
			CostInUse:  s.admission.InFlight(),
			CostLimit:  s.admission.Limit(),
		}
	})
	// The estimation routes get the full middleware (request IDs,
	// server spans, request log lines); /healthz and /metrics stay
	// bare so 2-second gateway probes don't flood the span ring.
	ho := obs.HTTPOptions{Service: "hetserve", Sink: s.sink, Logger: s.logger}
	s.mux.Handle("/estimate", obs.Handler(ho, "http.estimate", http.HandlerFunc(s.handleEstimate)))
	s.mux.Handle("/estimate-batch", obs.Handler(ho, "http.estimate_batch", http.HandlerFunc(s.handleEstimateBatch)))
	s.mux.Handle("/datasets", obs.Handler(ho, "http.datasets", http.HandlerFunc(s.handleDatasets)))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/debug/spans", s.sink.Handler())
	if cfg.EnablePprof {
		obs.RegisterPprof(s.mux)
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (tests and the CLI's shutdown summary).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Pool exposes the worker pool (tests).
func (s *Server) Pool() *Pool { return s.pool }

// Admission exposes the admission controller (tests).
func (s *Server) Admission() *resilience.Admission { return s.admission }

// Sink exposes the span sink (tests, embedded clusters).
func (s *Server) Sink() *obs.Sink { return s.sink }

// Store exposes the threshold store, nil when disabled (tests, CLIs).
func (s *Server) Store() *store.Store { return s.store }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.metrics.WriteTo(w); err != nil {
		s.logger.Error("writing metrics", slog.Any("err", err))
	}
}

// requestTimeout derives the handler deadline: the server-wide
// maximum, optionally tightened by ?timeout= and by the propagated
// X-Deadline-Ms budget a gateway stamps on forwarded requests. It is
// validated before the cache lookup and singleflight coalescing so a
// malformed timeout 400s its own request — even one a cached answer
// could have served — and never a coalesced herd.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	timeout := s.cfg.MaxTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, badRequest("bad timeout %q: %v", v, err)
		}
		if d <= 0 {
			return 0, badRequest("timeout %q must be positive", v)
		}
		if d < timeout {
			timeout = d
		}
	}
	budget, ok, err := resilience.Budget(r.Header)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	if ok {
		// Shave a safety margin so this server's deadline fires before
		// its caller's: the caller then receives a real 504 it can retry
		// or degrade on, instead of abandoning a connection mid-answer.
		budget = resilience.ShaveBudget(budget)
		if budget < resilience.MinBudget {
			// The caller's budget cannot fit even one evaluation:
			// answering 504 now is cheaper than computing an estimate
			// the caller has already abandoned. (handleEstimate counts
			// the deadline_exceeded metric when this surfaces as 504.)
			return 0, &httpError{code: http.StatusGatewayTimeout,
				err: fmt.Errorf("propagated deadline budget %v below minimum %v: %w",
					budget, resilience.MinBudget, context.DeadlineExceeded)}
		}
		if budget < timeout {
			timeout = budget
		}
	}
	return timeout, nil
}

// statusFor maps request and pipeline errors to HTTP status codes: an
// *httpError carries its own.
func statusFor(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, resilience.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// StatusClientClosedRequest is nginx's conventional code for a request
// abandoned by the client; no standard constant exists.
const StatusClientClosedRequest = 499

// ReadBody reads a POST body of at most limit bytes through
// http.MaxBytesReader, so an oversized body fails with
// *http.MaxBytesError whatever its Content-Length says, and returns it
// in an exact-size buffer (batch.ReadAll). The header is never
// trusted: a client that declares the limit and sends a few bytes
// holds only those bytes and one pooled chunk while its read is in
// flight.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return batch.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}
