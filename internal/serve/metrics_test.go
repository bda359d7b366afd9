package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	done := m.RequestStarted("spmm")
	if m.inFlight.Value() != 1 {
		t.Errorf("in flight = %d, want 1", m.inFlight.Value())
	}
	done(200, 3*time.Millisecond)
	if m.inFlight.Value() != 0 {
		t.Errorf("in flight = %d, want 0", m.inFlight.Value())
	}
	m.RequestStarted("cc")(404, time.Millisecond)
	m.CacheMisses.Inc()
	m.CacheMisses.Inc()
	m.CacheHits.Inc()

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`hetserve_requests_total{workload="spmm",code="200"} 1`,
		`hetserve_requests_total{workload="cc",code="404"} 1`,
		"hetserve_cache_hits_total 1",
		"hetserve_cache_misses_total 2",
		"hetserve_in_flight_requests 0",
		`hetserve_request_duration_seconds_bucket{workload="spmm",le="+Inf"} 1`,
		`hetserve_request_duration_seconds_count{workload="spmm"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	if got := m.CacheHitRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("hit ratio = %v, want ~1/3", got)
	}
}

// TestMetricsWorkloadLabelBounded sends estimates with distinct bad
// workload names. Each still gets its 400, but all are recorded under
// workload="unknown", so the series count stays where the first left
// it.
func TestMetricsWorkloadLabelBounded(t *testing.T) {
	s := New(Config{Workers: 1, Logger: obs.NopLogger()})
	send := func(i int) {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/estimate?workload=bad"+strconv.Itoa(i), nil))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("workload bad%d: status %d, want 400", i, rr.Code)
		}
	}
	series := func() int {
		var sb strings.Builder
		if _, err := s.Metrics().WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		return strings.Count(sb.String(), "\n") - 2*strings.Count(sb.String(), "# HELP ")
	}
	send(0)
	before := series()
	const n = 10000
	for i := 1; i < n; i++ {
		send(i)
	}
	if after := series(); after != before {
		t.Errorf("%d series after %d bad workload names, %d after the first", after, n, before)
	}
	if got := s.Metrics().requests.With("unknown", "400").Value(); got != n {
		t.Errorf(`requests_total{workload="unknown",code="400"} = %d, want %d`, got, n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestScrapeHoldsNoLock stalls a scrape inside its writer (a scraper
// that stopped reading) and inside a scrape-time callback; a request
// finishing meanwhile must still record and return.
func TestScrapeHoldsNoLock(t *testing.T) {
	for _, stall := range []string{"writer", "callback"} {
		t.Run(stall, func(t *testing.T) {
			m := NewMetrics()
			entered, release := make(chan struct{}, 1), make(chan struct{})
			block := func() {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-release
			}
			var w io.Writer = io.Discard
			if stall == "writer" {
				w = writerFunc(func(p []byte) (int, error) { block(); return len(p), nil })
			} else {
				m.SetCacheStats(func() CacheStats { block(); return CacheStats{} })
			}
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				m.WriteTo(w)
			}()
			<-entered
			recorded := make(chan struct{})
			go func() {
				defer close(recorded)
				m.RequestStarted(WorkloadCC)(200, time.Millisecond)
			}()
			select {
			case <-recorded:
			case <-time.After(5 * time.Second):
				t.Error("RequestStarted's done blocked behind a stalled scrape")
			}
			close(release)
			<-scraped
			<-recorded
		})
	}
}
