package cluster

import (
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.prom from the current code")

// uptimeSample matches the one /metrics sample that depends on the
// wall clock; the golden masks its value.
var uptimeSample = regexp.MustCompile(`(?m)^(\w+_uptime_seconds) .*$`)

// TestMetricsGolden pins the complete /metrics exposition of hetgate
// byte for byte — family order, HELP and TYPE text, label order, number
// formatting and the scrape-time breaker states — on a scenario that
// records every family and label with fixed durations.
func TestMetricsGolden(t *testing.T) {
	a, b, c := "http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"
	g, err := New(Config{Backends: []string{a, b, c}, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	m := g.Metrics()
	m.Upstream(a, 200, 4*time.Millisecond)
	m.Upstream(a, 200, 300*time.Millisecond)
	m.Upstream(a, 429, 2*time.Millisecond)
	m.Upstream(b, 0, 30*time.Second)
	m.Upstream(c, 504, 1500*time.Millisecond)
	m.Retries.Inc()
	m.Coalesced.Inc()
	m.Probes.With(a, "ok").Inc()
	m.Probes.With(a, "ok").Inc()
	m.Probes.With(b, "fail").Inc()
	m.Probes.With(c, "ok").Inc()
	m.Shed(a)
	m.Shed(a)
	m.Shed(c)
	m.StoreTransfers.With(a, "skip").Inc()
	m.StoreTransfers.With(a, "warm").Inc()
	m.StoreTransfers.With(c, "skip").Inc()
	m.FanoutJob(8)
	m.FanoutJob(5)
	m.FanoutSubBatches.With(a).Inc()
	m.FanoutSubBatches.With(a).Inc()
	m.FanoutSubBatches.With(c).Inc()
	m.FanoutDegraded.Inc()
	m.DeadlineExceeded.Inc()

	// a stays closed, b trips open, c trips and then half-opens once
	// its cooldown has passed.
	for _, backend := range []string{b, c} {
		for i := 0; i < DefaultBreakerThreshold; i++ {
			g.breaker(backend).Record(false)
		}
	}
	later := time.Now().Add(time.Hour)
	g.breaker(c).now = func() time.Time { return later }
	if !g.breaker(c).Allow() {
		t.Fatal("breaker c did not half-open")
	}

	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, sp := range []struct {
		name string
		d    time.Duration
	}{
		{"http.estimate", 12 * time.Millisecond},
		{"forward", 11 * time.Millisecond},
		{"upstream", 10 * time.Millisecond},
		{"upstream", 7 * time.Second},
	} {
		g.Sink().Observe(&obs.Span{Name: sp.name, Start: t0, End: t0.Add(sp.d)})
	}

	rr := httptest.NewRecorder()
	g.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	got := uptimeSample.ReplaceAllString(rr.Body.String(), "$1 <masked>")

	const path = "testdata/metrics.prom"
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
