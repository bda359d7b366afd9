package serve

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.prom from the current code")

// uptimeSample matches the one /metrics sample that depends on the
// wall clock; the goldens mask its value.
var uptimeSample = regexp.MustCompile(`(?m)^(\w+_uptime_seconds) .*$`)

// recordEveryFamily drives every hetserve metric family and label
// through the public recording surface with fixed durations.
func recordEveryFamily(t *testing.T, s *Server) {
	m := s.Metrics()
	m.RequestStarted(WorkloadSpMM)(200, 3*time.Millisecond)
	m.RequestStarted(WorkloadSpMM)(200, 700*time.Millisecond)
	m.RequestStarted(WorkloadCC)(404, 250*time.Microsecond)
	m.RequestStarted(WorkloadScaleFree)(504, 12*time.Second)
	m.RequestStarted("batch")(200, 40*time.Millisecond)
	m.RequestStarted(WorkloadCC) // still in flight at the scrape
	m.CacheHits.Inc()
	m.CacheMisses.Inc()
	m.CacheMisses.Inc()
	m.Coalesced.Inc()
	m.BuildHits.Inc()
	m.BuildMisses.Inc()
	m.BuildMisses.Inc()
	m.Shed.Inc()
	m.DeadlineExceeded.Inc()
	m.BatchJob(8)
	m.BatchJob(3)
	m.BatchRejected.Inc()
	for i, outcome := range []string{"refined", "cached", "shed", "deadline", "invalid", "error"} {
		for j := 0; j <= i; j++ {
			m.BatchOutcomes.With(outcome).Inc()
		}
	}
	m.StoreHits.Inc()
	m.StoreHits.Inc()
	m.StoreWarmStarts.Inc()
	m.StoreSkips.Inc()
	m.StoreProbes.Inc()
	m.StoreProbes.Inc()
	m.StoreProbes.Inc()
	m.StoreRejects.Inc()
	for i := 0; i < 3; i++ {
		m.EvalStarted()
	}
	m.EvalDone()
	m.EvalDone()
	m.EvalMemoHits.Inc()
	m.EvalMemoHits.Inc()
	m.EvalMemoMisses.Inc()

	// Cache capacity 1: the second Put evicts the first.
	s.cache.Put("a", 1)
	s.cache.Put("b", 2)

	// 1.5M cost units admitted.
	if err := s.Admission().Acquire(context.Background(), 1_500_000); err != nil {
		t.Fatal(err)
	}

	if st := s.Store(); st != nil {
		st.Put(WorkloadSpMM, "m1", "p", store.Features{Rows: 10}, 0.4, 100)
		st.Put(WorkloadCC, "g1", "p", store.Features{Rows: 20}, 0.6, 200)
	}

	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, sp := range []struct {
		name string
		d    time.Duration
	}{
		{"http.estimate", 90 * time.Millisecond},
		{"sample", 3 * time.Microsecond},
		{"identify", 40 * time.Millisecond},
		{"identify", 2500 * time.Millisecond},
		{"extrapolate", 20 * time.Second},
	} {
		s.Sink().Observe(&obs.Span{Name: sp.name, Start: t0, End: t0.Add(sp.d)})
	}
}

// scrape reads the handler's /metrics with the uptime sample masked.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	return uptimeSample.ReplaceAllString(rr.Body.String(), "$1 <masked>")
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestMetricsGolden pins the complete /metrics exposition of hetserve
// byte for byte — family order, HELP and TYPE text, label order and
// number formatting — with and without the threshold store.
func TestMetricsGolden(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		store      bool
	}{
		{"store", "testdata/metrics_store.prom", true},
		{"no-store", "testdata/metrics_nostore.prom", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 1, CacheSize: 1, AdmissionLimit: 4_000_000, Logger: testLogger(t)}
			if tc.store {
				st, err := store.Open(store.Config{})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store = st
			}
			s := New(cfg)
			recordEveryFamily(t, s)
			checkGolden(t, tc.path, scrape(t, s))
		})
	}
}
