package serve

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// stubSampled is a trivially buildable workload for cache unit tests.
type stubSampled struct{ core.Sampled }

func (stubSampled) Name() string { return "stub" }

func TestBuildCacheHitMiss(t *testing.T) {
	c := newBuildCache()
	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		return stubSampled{}, nil
	}
	if _, hit, err := c.get("k", build); err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := c.get("k", build); err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v, want hit", hit, err)
	}
	if _, hit, err := c.get("other", build); err != nil || hit {
		t.Fatalf("distinct key: hit=%v err=%v, want miss", hit, err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("%d builds, want 2", n)
	}
	if c.len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.len())
	}
}

func TestBuildCacheSingleflight(t *testing.T) {
	c := newBuildCache()
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() (any, error) {
		builds.Add(1)
		<-release // hold every concurrent getter in the same flight
		return stubSampled{}, nil
	}
	const herd = 16
	var (
		wg   sync.WaitGroup
		hits atomic.Int64
	)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.get("k", build)
			if err != nil {
				t.Error(err)
				return
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// Give the herd time to pile onto the flight, then let it through.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for a concurrent herd, want 1", n)
	}
	if h := hits.Load(); h != herd-1 {
		t.Errorf("%d hits, want %d (every follower)", h, herd-1)
	}
}

func TestBuildCacheErrorNotCached(t *testing.T) {
	c := newBuildCache()
	boom := errors.New("parse failed")
	fail := func() (any, error) { return nil, boom }
	if _, _, err := c.get("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want build failure", err)
	}
	// The failed build must not poison the key.
	if _, hit, err := c.get("k", func() (any, error) { return stubSampled{}, nil }); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v, want fresh miss", hit, err)
	}
}

// TestServerBuildCache: two estimations over the same dataset but
// different result-cache keys (seeds) build the workload once, and the
// counters land in /metrics.
func TestServerBuildCache(t *testing.T) {
	s := New(Config{Workers: 2, CacheSize: 8, Logger: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&seed=1&repeats=1", 200)
	getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&seed=2&repeats=1", 200)
	hits, misses := s.Metrics().BuildCounts()
	if misses != 1 || hits != 1 {
		t.Errorf("build counts hits=%d misses=%d, want 1/1", hits, misses)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"hetserve_workload_build_hits_total 1",
		"hetserve_workload_build_misses_total 1",
		"hetserve_evaluations_in_flight 0",
		"hetserve_evaluations_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if s.Metrics().EvalsTotal() == 0 {
		t.Error("evaluation counter never moved")
	}
}

// TestServerParallelismDeterminism: a sequential and a parallel server
// must produce identical estimates for the same request.
func TestServerParallelismDeterminism(t *testing.T) {
	const q = "/estimate?workload=cc&dataset=qcd5_4&seed=5&repeats=2"
	seqSrv := newTestServer(t, Config{Workers: 1, Parallelism: 1})
	parSrv := newTestServer(t, Config{Workers: 1, Parallelism: 4})
	seq := getJSON(t, seqSrv.URL+q, 200)
	par := getJSON(t, parSrv.URL+q, 200)
	for _, k := range []string{"threshold", "sample_threshold", "evals", "identify_cost_ns", "sample_cost_ns"} {
		if seq[k] != par[k] {
			t.Errorf("%s differs: sequential %v, parallel %v", k, seq[k], par[k])
		}
	}
}
