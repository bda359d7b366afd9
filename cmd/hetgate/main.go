// Command hetgate is the sharded estimation gateway: it fronts N
// hetserve replicas and routes /estimate requests by input fingerprint
// on a consistent-hash ring, so repeated inputs land on the replica
// whose result cache already holds them.
//
// Endpoints mirror hetserve:
//
//	GET/POST /estimate        sharded, retried, coalesced
//	POST     /estimate-batch  items split by ring placement, streamed back merged
//	GET      /datasets        proxied from any live replica
//	GET      /healthz         gateway health (503 when every breaker is open)
//	GET      /metrics         gateway Prometheus metrics
//
// Backends come from -backends (comma-separated base URLs) or
// -embedded K, which starts K in-process hetserve replicas on loopback
// — the full cluster in one binary, handy for development and CI.
//
// Examples:
//
//	hetserve -addr :8081 & hetserve -addr :8082 &
//	hetgate -addr :8080 -backends http://localhost:8081,http://localhost:8082
//	hetgate -addr :8080 -embedded 3
//
// hetgate only serves. Its performance is measured end to end by the
// bench/ ledger (BENCHMARK.json), and the batch path's amortization by
// BenchmarkBatch in the repository root.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		backends = flag.String("backends", "", "comma-separated hetserve base URLs")
		embedded = flag.Int("embedded", 0, "start K in-process hetserve backends instead of -backends")

		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
		attempts   = flag.Int("attempts", cluster.DefaultMaxAttempts, "max tries per request across backends")
		retryBase  = flag.Duration("retry-base", cluster.DefaultRetryBase, "base backoff between retries (grows exponentially, full jitter)")
		retryMax   = flag.Duration("retry-max", cluster.DefaultRetryMax, "backoff cap")
		healthIvl  = flag.Duration("health-interval", cluster.DefaultHealthInterval, "/healthz probe period")
		brkThresh  = flag.Int("breaker-threshold", cluster.DefaultBreakerThreshold, "consecutive failures before a breaker opens")
		brkCool    = flag.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown, "open-breaker hold time before a half-open probe")
		upTimeout  = flag.Duration("upstream-timeout", cluster.DefaultUpstreamTimeout, "end-to-end bound on one upstream call or batch job (retries included); a hung backend's requests end here")
		maxUpload  = flag.Int64("max-upload", serve.DefaultMaxUpload, "max POST body bytes")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "workers per embedded backend")
		par        = flag.Int("parallelism", 1, "concurrent threshold evaluations per pipeline in embedded backends (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("cache", serve.DefaultCacheSize, "result-cache capacity per embedded backend")
		verbose    = flag.Bool("v", false, "log retries and breaker transitions")
		seed       = flag.Int64("seed", cluster.DefaultSeed, "seed for the retry-jitter RNG (reproducible backoff schedules)")
		faults     = flag.String("faults", "", "fault-injection rules on upstream calls, e.g. 'backend=1;latency=200ms;errors=0.3' (chaos testing; empty disables)")
		faultsSeed = flag.Int64("faults-seed", 1, "seed for the fault-injection RNG (same seed + traffic = same faults)")
		admission  = flag.Int64("admission", 0, "embedded backends: admission capacity in evaluation-cost units (0 = default)")
		admissionQ = flag.Int("admission-queue", 0, "embedded backends: requests that may wait for admission before a 429 shed (0 = default, negative = never queue)")
		degrade    = flag.Bool("degrade", false, "embedded backends: serve cached/fallback answers (marked degraded) instead of 429 on shed")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		pprofFlag  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	if err := run(config{
		addr: *addr, backends: *backends, embedded: *embedded,
		vnodes: *vnodes, attempts: *attempts,
		retryBase: *retryBase, retryMax: *retryMax,
		healthIvl: *healthIvl, brkThresh: *brkThresh, brkCool: *brkCool,
		upTimeout: *upTimeout, maxUpload: *maxUpload,
		workers: *workers, parallelism: *par, cacheSize: *cacheSize, verbose: *verbose,
		seed: *seed, faults: *faults, faultsSeed: *faultsSeed,
		admission: *admission, admissionQueue: *admissionQ,
		degrade: *degrade,
		logJSON: *logJSON, pprof: *pprofFlag,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "hetgate:", err)
		os.Exit(1)
	}
}

type config struct {
	addr, backends      string
	embedded            int
	vnodes, attempts    int
	retryBase, retryMax time.Duration
	healthIvl           time.Duration
	brkThresh           int
	brkCool, upTimeout  time.Duration
	maxUpload           int64
	workers, cacheSize  int
	parallelism         int
	verbose             bool
	seed                int64
	faults              string
	faultsSeed          int64
	admission           int64
	admissionQueue      int
	degrade             bool
	logJSON, pprof      bool
}

func run(c config) error {
	level := slog.LevelInfo
	if c.verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, "hetgate", level, c.logJSON)

	inject, err := resilience.ParseFaults(c.faults, c.faultsSeed)
	if err != nil {
		return err
	}

	// Resolve backends: explicit URLs, or an embedded loopback cluster.
	var urls []string
	if c.backends != "" {
		for _, u := range strings.Split(c.backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
	}
	if len(urls) == 0 {
		k := c.embedded
		if k <= 0 {
			return errors.New("no backends: pass -backends or -embedded K")
		}
		e, err := cluster.StartEmbedded(k, serve.Config{
			Workers:        c.workers,
			Parallelism:    c.parallelism,
			CacheSize:      c.cacheSize,
			MaxUploadBytes: c.maxUpload,
			AdmissionLimit: c.admission,
			AdmissionQueue: c.admissionQueue,
			DegradeOnShed:  c.degrade,
			Logger:         obs.NewLogger(os.Stderr, "hetserve", level, c.logJSON),
			EnablePprof:    c.pprof,
		})
		if err != nil {
			return err
		}
		defer e.Close()
		urls = e.URLs()
		logger.Info("started embedded backends",
			slog.Int("count", k),
			slog.String("urls", strings.Join(urls, ", ")))
	}

	g, err := cluster.New(cluster.Config{
		Backends:         urls,
		VNodes:           c.vnodes,
		MaxAttempts:      c.attempts,
		RetryBase:        c.retryBase,
		RetryMax:         c.retryMax,
		HealthInterval:   c.healthIvl,
		BreakerThreshold: c.brkThresh,
		BreakerCooldown:  c.brkCool,
		UpstreamTimeout:  c.upTimeout,
		MaxBodyBytes:     c.maxUpload,
		Logger:           logger,
		Seed:             c.seed,
		Faults:           inject,
		EnablePprof:      c.pprof,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go g.Run(ctx)

	srv := &http.Server{
		Addr:    c.addr,
		Handler: g.Handler(),
		// Same hardening as hetserve: bound header and body reads so
		// slowloris-style clients cannot exhaust connections.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       c.upTimeout + 30*time.Second,
		WriteTimeout:      c.upTimeout + 10*time.Second,
		MaxHeaderBytes:    1 << 20,
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			slog.String("addr", c.addr),
			slog.Int("backends", len(urls)),
			slog.Bool("pprof", c.pprof))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	retries, _, coalesced := g.Metrics().Counts()
	logger.Info("shutting down",
		slog.Uint64("retries", retries),
		slog.Uint64("coalesced", coalesced))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
