package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// startChaosCluster is startCluster with control over the backend
// serve.Config — chaos tests need admission limits and degrade modes
// the happy-path tests don't.
func startChaosCluster(t *testing.T, k int, scfg serve.Config, mut func(*Config)) (*Embedded, *Gateway, *httptest.Server) {
	t.Helper()
	if scfg.Logger == nil {
		scfg.Logger = testLogger(t)
	}
	e, err := StartEmbedded(k, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	cfg := Config{
		Backends:         e.URLs(),
		HealthInterval:   50 * time.Millisecond,
		HealthTimeout:    500 * time.Millisecond,
		BreakerThreshold: 5, // chaos keeps erroring; don't trip on the first burst
		BreakerCooldown:  100 * time.Millisecond,
		MaxAttempts:      4,
		RetryBase:        10 * time.Millisecond,
		RetryMax:         50 * time.Millisecond,
		Logger:           testLogger(t),
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); g.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return e, g, ts
}

// TestChaosGatewaySurvivesFaultyBackend is the acceptance scenario: 3
// embedded backends, deterministic faults (30% errors + 200ms latency)
// on one of them, and the gateway's retries keep client success ≥ 90%
// with degraded answers counted separately from successes.
func TestChaosGatewaySurvivesFaultyBackend(t *testing.T) {
	// Path-scoped to /estimate: faulting /healthz too would let the
	// prober open backend 1's breaker and route traffic away, which
	// tests the breaker, not the retry path this scenario is about.
	faults := resilience.NewFaults(7, resilience.Rule{
		Backend:   1,
		Path:      "/estimate",
		Latency:   200 * time.Millisecond,
		ErrorRate: 0.3,
	})
	e, g, ts := startChaosCluster(t, 3, serve.Config{Workers: 4, CacheSize: 64},
		func(c *Config) { c.Faults = faults })

	// Ring placement depends on the backends' (random) loopback ports,
	// so a fixed set of inputs might all route around the faulty
	// replica. Pick inputs by their actual ring owner instead: at least
	// two of the six must land on backend 1, or the chaos is a no-op.
	faultyURL := e.URLs()[1]
	ownedBy := func(b []byte) string {
		owner, _ := g.ring.Pick(batch.InputKey("", b))
		return owner
	}
	const requests = 60
	var bodies [][]byte
	onFaulty := 0
	for s := uint64(900); len(bodies) < 6; s++ {
		b := genMTX(t, 300, 2400, s)
		faulty := ownedBy(b) == faultyURL
		// Reserve the last two slots for inputs the faulty replica owns.
		if !faulty && len(bodies) >= 4 && onFaulty < 2 {
			continue
		}
		if faulty {
			onFaulty++
		}
		bodies = append(bodies, b)
	}

	var ok, degraded atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Distinct seeds defeat both caches and coalescing: every
			// request is a real pipeline run routed across the ring.
			q := fmt.Sprintf("workload=spmm&repeats=1&seed=%d", i)
			resp, err := http.Post(ts.URL+"/estimate?"+q, "text/plain", bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ok.Add(1)
				if resp.Header.Get(serve.DegradedHeader) != "" {
					degraded.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()

	if got := faults.Counts()["error"]; got == 0 {
		t.Fatal("fault injector never fired; the chaos test tested nothing")
	}
	if rate := float64(ok.Load()) / requests; rate < 0.90 {
		t.Errorf("success rate %.2f, want >= 0.90 (retries should absorb a 30%%-faulty backend)", rate)
	}
	// No backend runs in degrade mode here, so degraded answers must be
	// zero — and in any case they are tracked apart from successes.
	shed, degradedGW, _ := g.Metrics().ResilienceCounts()
	if degradedGW != uint64(degraded.Load()) {
		t.Errorf("gateway degraded counter %d != observed degraded headers %d", degradedGW, degraded.Load())
	}
	if shed != 0 {
		t.Errorf("shed = %d, want 0 (no admission pressure in this scenario)", shed)
	}
	retries, _, _ := g.Metrics().Counts()
	if retries == 0 {
		t.Error("no retries recorded; injected errors should have forced some")
	}
}

// TestChaosDeadlinePropagation — the gateway's upstream budget reaches
// the backends as X-Deadline-Ms and bounds their work: every response
// lands within the deadline plus at most one straggling evaluation.
func TestChaosDeadlinePropagation(t *testing.T) {
	const budget = 250 * time.Millisecond
	e, _, ts := startChaosCluster(t, 3, serve.Config{Workers: 4, CacheSize: 64},
		func(c *Config) { c.UpstreamTimeout = budget })

	// Expensive enough that the estimation cannot fit the budget, yet
	// cheap enough to ingest that the budget is spent estimating: the
	// estimation's work grows with row degree while the upload's parsing
	// and hashing grow only with its bytes, so the input is narrow and
	// dense. On a 2-CPU Xeon, 1000×300k (300 entries a row, 8.3 MB)
	// parses in 50–75 ms, and the six full estimations take 0.7–0.95 s.
	// Under the race detector, parsing runs at about 15 MB/s, so the body
	// shrinks to 1000×40k (1.1 MB, ~70 ms): its six estimations still
	// take 0.6–0.8 s.
	n, nnz := 1000, 300000
	if raceEnabled {
		n, nnz = 1000, 40000
	}
	mtx := genMTX(t, n, nnz, 31)
	const requests = 6
	var wg sync.WaitGroup
	overruns := make([]time.Duration, requests)
	statuses := make([]int, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("workload=spmm&repeats=9&searcher=exhaustive&seed=%d", i)
			start := time.Now()
			resp, err := http.Post(ts.URL+"/estimate?"+q, "text/plain", bytes.NewReader(mtx))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			overruns[i] = time.Since(start) - budget
		}(i)
	}
	wg.Wait()

	// "At most one grid-point evaluation late": a single spmm evaluation
	// on this input is tens of milliseconds, so a second of slack is the
	// generous CI-proof version of that bound (scaled up under the race
	// detector, whose instrumentation slows body parsing and evaluation
	// alike). What it must rule out is the old behavior — a backend
	// grinding through the whole grid long after the deadline passed.
	slack := time.Second
	if raceEnabled {
		slack = 4 * time.Second
	}
	for i, over := range overruns {
		if statuses[i] != http.StatusGatewayTimeout {
			t.Errorf("request %d: status %d, want 504 (budget cannot fit the estimation)", i, statuses[i])
		}
		if over > slack {
			t.Errorf("request %d overran its deadline by %v", i, over)
		}
	}
	// Admitted pipelines may still be finishing their current evaluation
	// when the clients come back, so poll the counters briefly instead of
	// reading them once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var backendDeadlines uint64
		for i := 0; i < 3; i++ {
			_, _, _, d := e.Server(i).Metrics().ResilienceCounts()
			backendDeadlines += d
		}
		if backendDeadlines > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("no backend counted deadline_exceeded; was the budget header propagated?")
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosShedsInsteadOfQueueing — saturated backends answer 429
// immediately rather than queueing unboundedly; the gateway counts the
// sheds and keeps trying other replicas.
func TestChaosShedsInsteadOfQueueing(t *testing.T) {
	e, g, ts := startChaosCluster(t, 3,
		serve.Config{Workers: 1, CacheSize: 64, AdmissionLimit: 1, AdmissionQueue: -1}, nil)

	const requests = 12
	bodies := make([][]byte, requests)
	for i := range bodies {
		bodies[i] = genMTX(t, 2000, 40000, uint64(700+i)) // distinct: no coalescing
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			resp, err := client.Post(ts.URL+"/estimate?workload=spmm&repeats=1", "text/plain", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Errorf("request %d hung or failed at the transport: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var backendShed uint64
	for i := 0; i < 3; i++ {
		s, _, _, _ := e.Server(i).Metrics().ResilienceCounts()
		backendShed += s
	}
	if backendShed == 0 {
		t.Error("backends never shed; admission pressure did not materialize")
	}
	gwShed, _, _ := g.Metrics().ResilienceCounts()
	if gwShed == 0 {
		t.Error("gateway did not count any 429 sheds")
	}
	// Shedding must be fast. If saturated backends queued all 12
	// expensive runs serially per worker, the slowest requests would
	// take far longer than this.
	if elapsed > 60*time.Second {
		t.Errorf("burst took %v; sheds should be immediate, not queued", elapsed)
	}
}

// TestChaosDegradedAnswersUnderOverload — with -degrade, saturation
// turns into degraded 200s (stale or static fallback), counted apart
// from clean successes on the gateway.
func TestChaosDegradedAnswersUnderOverload(t *testing.T) {
	e, g, ts := startChaosCluster(t, 3,
		serve.Config{Workers: 1, CacheSize: 64, AdmissionLimit: 1, AdmissionQueue: -1, DegradeOnShed: true}, nil)

	const requests = 12
	bodies := make([][]byte, requests)
	for i := range bodies {
		bodies[i] = genMTX(t, 2000, 40000, uint64(800+i))
	}
	var ok, degraded atomic.Int64
	post := func(bodies [][]byte) {
		var wg sync.WaitGroup
		for _, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/estimate?workload=spmm&repeats=1", "text/plain", bytes.NewReader(body))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok.Add(1)
					if resp.Header.Get(serve.DegradedHeader) != "" {
						degraded.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}
	// Saturate every backend before any upload is sent: the test holds
	// each one's single admission slot, so the first half of the
	// uploads is shed whatever the timing. Left to overlap on their
	// own, the 11-90 ms uploads sometimes never met on a backend and
	// nothing was shed. The slots are freed before the second half, so
	// its first arrival on a backend runs a real estimate.
	for i := range 3 {
		if err := e.Server(i).Admission().Acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	post(bodies[:requests/2])
	for i := range 3 {
		e.Server(i).Admission().Release(1)
	}
	post(bodies[requests/2:])

	if ok.Load() != requests {
		t.Errorf("successes = %d, want %d (degrade mode answers every shed)", ok.Load(), requests)
	}
	if degraded.Load() == 0 {
		t.Error("no degraded answers; saturation should have forced some")
	}
	if degraded.Load() == requests {
		t.Error("every answer degraded; at least the first per backend should be a real estimate")
	}
	_, gwDegraded, _ := g.Metrics().ResilienceCounts()
	if gwDegraded != uint64(degraded.Load()) {
		t.Errorf("gateway degraded counter %d != degraded headers seen %d", gwDegraded, degraded.Load())
	}
}

// TestGatewayMetricsExposeResilienceCounters — the chaos smoke job
// greps /metrics for these names, so they must render even at zero.
func TestGatewayMetricsExposeResilienceCounters(t *testing.T) {
	_, _, ts := startChaosCluster(t, 1, serve.Config{Workers: 1}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"hetgate_shed_total",
		"hetgate_degraded_total",
		"hetgate_deadline_exceeded_total",
	} {
		if !bytes.Contains(body, []byte(name)) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}
