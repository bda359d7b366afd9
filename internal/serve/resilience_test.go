package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// occupied builds a server whose admission capacity is fully consumed,
// so every estimation request hits the shed path. Cleanup releases the
// capacity.
func occupied(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.AdmissionLimit = 1
	cfg.AdmissionQueue = -1 // shed immediately, never queue
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.Admission().Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Admission().Release(1) })
	return s, ts
}

// TestShed429 — with admission full and no queue, a request sheds with
// 429 + Retry-After instead of waiting, and the shed counter moves.
func TestShed429(t *testing.T) {
	s, ts := occupied(t, Config{})

	resp, err := http.Get(ts.URL + "/estimate?workload=spmm&dataset=cant&repeats=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive second count", ra)
	}
	shed, _, _, _ := s.Metrics().ResilienceCounts()
	if shed == 0 {
		t.Error("shed counter did not move")
	}

	// Capacity freed: the same request now succeeds.
	s.Admission().Release(1)
	defer func() {
		if err := s.Admission().Acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}()
	getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&repeats=1", 200)
}

// TestDegradedFallback — with -degrade, a shed request with no cache
// entry answers 200 with the NaiveStatic fallback, marked degraded in
// both the body and the X-Hetserve-Degraded header.
func TestDegradedFallback(t *testing.T) {
	s, ts := occupied(t, Config{DegradeOnShed: true})

	resp, err := http.Get(ts.URL + "/estimate?workload=spmm&dataset=cant&repeats=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200\n%s", resp.StatusCode, b)
	}
	if resp.Header.Get(DegradedHeader) == "" {
		t.Errorf("missing %s header on degraded answer", DegradedHeader)
	}
	out := getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&repeats=1", 200)
	if out["degraded"] != true {
		t.Errorf("degraded = %v, want true", out["degraded"])
	}
	if got := out["searcher"]; got != "naive-static(fallback)" {
		t.Errorf("searcher = %v, want naive-static(fallback)", got)
	}
	th, ok := out["threshold"].(float64)
	if !ok || th < 0 || th > 100 {
		t.Errorf("fallback threshold = %v, want a percentage", out["threshold"])
	}
	_, degraded, _, _ := s.Metrics().ResilienceCounts()
	if degraded == 0 {
		t.Error("degraded counter did not move")
	}
}

// TestShedFallbackPrefersCache — a shed with any cache entry for the
// key serves that entry (marked degraded) instead of the static guess.
func TestShedFallbackPrefersCache(t *testing.T) {
	s := New(Config{CacheSize: 8, DegradeOnShed: true, Logger: testLogger(t)})
	want := EstimateResponse{Workload: "spmm", Input: "cant", Searcher: "race+fine", Threshold: 37.5}
	s.cache.Put("k", want)

	rec := httptest.NewRecorder()
	resp, ok := s.shedFallback(rec.Header(), &request{cacheKey: "k", workload: "spmm", input: "cant", seed: 42})
	if !ok {
		t.Fatal("shedFallback declined with a cache entry present")
	}
	if !resp.Degraded || !resp.Cached {
		t.Errorf("flags = degraded:%v cached:%v, want both true", resp.Degraded, resp.Cached)
	}
	if resp.Threshold != want.Threshold || resp.Searcher != want.Searcher {
		t.Errorf("served %+v, want the cached entry", resp)
	}
	if rec.Header().Get(DegradedHeader) == "" {
		t.Errorf("missing %s header", DegradedHeader)
	}
}

// TestDeadlineHeaderTooSmall — a propagated budget below MinBudget
// fails fast with 504 and counts deadline_exceeded; a malformed or
// overflowing value is a 400.
func TestDeadlineHeaderTooSmall(t *testing.T) {
	cfg := Config{Logger: testLogger(t)}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/estimate?workload=spmm&dataset=cant&repeats=1", nil)
	req.Header.Set(resilience.DeadlineHeader, "1") // 1ms < MinBudget
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504\n%s", resp.StatusCode, body)
	}
	_, _, _, deadlines := s.Metrics().ResilienceCounts()
	if deadlines == 0 {
		t.Error("deadline_exceeded counter did not move")
	}

	// 18446744073710ms overflows a time.Duration; it once wrapped to
	// 448µs and was answered 504.
	for _, v := range []string{"banana", "18446744073710"} {
		req.Header.Set(resilience.DeadlineHeader, v)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed header %q: status = %d, want 400", v, resp.StatusCode)
		}
	}
}

// TestDeadlineHeaderValidatedOnCacheHit — header validation must not
// depend on cache state: a malformed budget 400s even when a cached
// answer exists, while a well-formed too-small budget is satisfied by
// the instant cache hit instead of 504ing.
func TestDeadlineHeaderValidatedOnCacheHit(t *testing.T) {
	cfg := Config{CacheSize: 8, Logger: testLogger(t)}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const url = "/estimate?workload=spmm&dataset=cant&repeats=1"
	getJSON(t, ts.URL+url, 200) // warm the cache

	req, _ := http.NewRequest(http.MethodGet, ts.URL+url, nil)
	req.Header.Set(resilience.DeadlineHeader, "banana")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed header on warm cache: status = %d, want 400", resp.StatusCode)
	}

	req.Header.Set(resilience.DeadlineHeader, "1") // below MinBudget
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tiny budget on warm cache: status = %d, want 200 (hit answers instantly)", resp.StatusCode)
	}
}

// TestDeadlineHeaderBoundsWork — a small but valid budget bounds the
// pipeline: the request 504s promptly instead of running the full
// estimation. The budget is a quarter of what the same request takes
// without one on this machine (never below MinBudget), so a faster
// parser or search cannot finish inside a fixed budget and pass by
// returning 200.
func TestDeadlineHeaderBoundsWork(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := genMTX(t, 4000, 80000, 9)
	post := func(seed int, budget time.Duration) (int, time.Duration) {
		t.Helper()
		url := fmt.Sprintf("%s/estimate?workload=spmm&repeats=9&searcher=exhaustive&seed=%d", ts.URL, seed)
		req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if budget > 0 {
			resilience.SetBudget(req.Header, budget)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, time.Since(start)
	}
	// Calibrate under another seed, so the result cache cannot answer
	// the timed request.
	code, full := post(1, 0)
	if code != http.StatusOK {
		t.Fatalf("calibration status = %d, want 200", code)
	}
	budget := max(resilience.MinBudget, full/4)
	code, elapsed := post(2, budget)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d with a %v budget (full run %v), want 504 (the deadline should cut the request short)", code, budget, full)
	}
	// The check between evaluations bounds overrun to one evaluation,
	// so even a slow CI box finishes well under 5s.
	if elapsed > 5*time.Second {
		t.Errorf("504 took %v; deadline not honored by the pipeline", elapsed)
	}
}

// TestMetricsExposeResilienceCounters — the chaos smoke test greps
// /metrics for these names, so they must render even at zero.
func TestMetricsExposeResilienceCounters(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"hetserve_shed_total",
		"hetserve_degraded_total",
		"hetserve_deadline_exceeded_total",
		"hetserve_admission_queue_depth",
		"hetserve_admission_cost_in_flight",
		"hetserve_admission_cost_limit",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}
