// Command hetserve is the threshold-estimation daemon: it answers
// "how should I split this input across devices?" over HTTP using the
// paper's Sample → Identify → Extrapolate framework.
//
// Endpoints:
//
//	GET  /estimate?workload=cc|spmm|scalefree&dataset=<name>   named Table II replica
//	POST /estimate?workload=...                                MatrixMarket body upload
//	GET  /datasets                                             list the named replicas
//	GET  /healthz                                              liveness probe
//	GET  /metrics                                              Prometheus text format
//
// Optional /estimate query parameters: seed (default 42), repeats
// (default 3), searcher (exhaustive | coarse-to-fine | gradient |
// race; default depends on workload), timeout (e.g. 500ms, capped by
// -timeout), devices (2..8: estimate an N-device partition vector over
// the simplex instead of the scalar threshold; cc and spmm only;
// devices=2 is bit-identical to the scalar search). Requests carrying
// an X-Deadline-Ms header (stamped by hetgate from its remaining
// client budget) are bounded by that budget too, and shed with 504
// when the budget cannot fit any work.
//
// Device inventory: partition requests with devices ≥ 3 run on the
// default CPU + (N-1) GPU cascade.
//
// Threshold store: -store enables the structure-keyed threshold store
// (hetstore) — estimates are keyed by the input's structural feature
// vector and transferred to structurally similar inputs, either
// warm-starting the Identify sweep or skipping it entirely behind a
// cheap verification probe. -store-path persists the store as
// append-only JSONL across restarts (flushed periodically and on
// SIGTERM); -store-radius tunes the nearest-neighbor acceptance
// distance.
//
// Overload protection: -admission caps the total estimated evaluation
// cost in flight, -admission-queue bounds the LIFO wait stack in front
// of it; beyond both, requests are shed with 429 + Retry-After, or —
// with -degrade — answered from a cache entry or the static
// fallback threshold, marked "degraded":true. Chaos tests inject
// faults at the gateway (hetgate -faults), which wraps every call to
// its backends, health probes included.
//
// Example:
//
//	hetserve -addr :8080 &
//	curl 'http://localhost:8080/estimate?workload=spmm&dataset=cant&seed=7'
//	curl --data-binary @graph.mtx 'http://localhost:8080/estimate?workload=cc'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent estimations")
		par        = flag.Int("parallelism", 1, "concurrent threshold evaluations per pipeline (0 = GOMAXPROCS; results identical at any setting)")
		cacheSize  = flag.Int("cache", serve.DefaultCacheSize, "result cache capacity (0 disables)")
		maxUpload  = flag.Int64("max-upload", serve.DefaultMaxUpload, "max POST body bytes")
		batchItems = flag.Int("batch-max-items", 0, "max items per /estimate-batch job (0 = default)")
		batchBytes = flag.Int64("batch-max-bytes", 0, "max /estimate-batch body bytes, manifest + uploads together (0 = max-upload)")
		timeout    = flag.Duration("timeout", serve.DefaultMaxTimeout, "per-request deadline cap")
		admission  = flag.Int64("admission", 0, "admission capacity in evaluation-cost units (0 = default)")
		admissionQ = flag.Int("admission-queue", 0, "requests that may wait for admission before shedding with 429 (0 = default, negative = never queue)")
		degrade    = flag.Bool("degrade", false, "on shed, serve a cache entry or static-fallback threshold (marked degraded) instead of 429")
		useStore   = flag.Bool("store", false, "enable the structure-keyed threshold store (cross-input transfer)")
		storePath  = flag.String("store-path", "", "persist the threshold store as JSONL at this path (empty = in-memory)")
		storeRad   = flag.Float64("store-radius", 0, "nearest-neighbor acceptance distance over normalized features (0 = default)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		pprof      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	var st *store.Store
	if *useStore || *storePath != "" {
		var err error
		st, err = store.Open(store.Config{Path: *storePath, Radius: *storeRad})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetserve: opening threshold store:", err)
			os.Exit(1)
		}
	}
	cfg := serve.Config{
		Workers:        *workers,
		Parallelism:    *par,
		CacheSize:      *cacheSize,
		MaxUploadBytes: *maxUpload,
		BatchMaxItems:  *batchItems,
		BatchMaxBytes:  *batchBytes,
		MaxTimeout:     *timeout,
		AdmissionLimit: *admission,
		AdmissionQueue: *admissionQ,
		DegradeOnShed:  *degrade,
		EnablePprof:    *pprof,
		Store:          st,
	}
	if err := run(*addr, cfg, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "hetserve:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, logJSON bool) error {
	logger := obs.NewLogger(os.Stderr, "hetserve", slog.LevelInfo, logJSON)
	cfg.Logger = logger
	s := serve.New(cfg)

	srv := &http.Server{
		Addr:    addr,
		Handler: s.Handler(),
		// Estimations can legitimately run for the full -timeout; add
		// headroom for serialization. ReadTimeout covers the whole
		// upload, ReadHeaderTimeout and MaxHeaderBytes cut off
		// slowloris-style connection exhaustion before a body is ever
		// accepted.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.MaxTimeout + 30*time.Second,
		WriteTimeout:      cfg.MaxTimeout + 10*time.Second,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic store flush: the append-only log already survives
	// crashes, but a compacted snapshot keeps boot time and file size
	// bounded on long-running daemons.
	if st := s.Store(); st != nil {
		go func() {
			ticker := time.NewTicker(storeFlushInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := st.Flush(); err != nil {
						logger.Warn("flushing threshold store", slog.Any("err", err))
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			slog.String("addr", addr),
			slog.Int("workers", cfg.Workers),
			slog.Int("cache", cfg.CacheSize),
			slog.Int64("admission", s.Admission().Limit()),
			slog.Bool("degrade", cfg.DegradeOnShed),
			slog.Bool("store", s.Store() != nil),
			slog.Bool("pprof", cfg.EnablePprof))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shed, degraded, _, deadlines := s.Metrics().ResilienceCounts()
	logger.Info("shutting down",
		slog.Float64("cache_hit_ratio", s.Metrics().CacheHitRatio()),
		slog.Uint64("shed", shed),
		slog.Uint64("degraded", degraded),
		slog.Uint64("deadline_exceeded", deadlines))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if st := s.Store(); st != nil {
		// Close flushes a final snapshot so transferred knowledge
		// survives the restart.
		if err := st.Close(); err != nil {
			logger.Warn("closing threshold store", slog.Any("err", err))
		}
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// storeFlushInterval is how often a persistent threshold store
// compacts its snapshot in the background.
const storeFlushInterval = 5 * time.Minute
