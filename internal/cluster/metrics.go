package cluster

import (
	"io"
	"strconv"
	"time"

	"repro/internal/obs"
)

// upstreamBuckets are the upper bounds (seconds) of the per-backend
// latency histogram: gateway-observed upstream latency spans coalesced
// cache hits (~ms over loopback) to full estimation runs (seconds).
var upstreamBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics is the gateway's observability surface, one obs.Registry
// exposed at /metrics in the same style as internal/serve. Labels are
// backend URLs, status codes, probe outcomes, store modes and stage
// names, all bounded by cluster size. Call sites record events on the
// exported counters directly.
type Metrics struct {
	reg     *obs.Registry
	started time.Time

	upstream *obs.Vec[obs.Counter]   // backend, code ("err" for transport failures)
	latency  *obs.Vec[obs.Histogram] // backend

	// Retries counts retry rounds (attempts after the first) and
	// Coalesced client requests answered by another in-flight identical
	// request.
	Retries, Coalesced *obs.Counter

	// Backend backpressure: 429 answers and degraded-but-usable answers
	// (cache entry or static-fallback threshold served under
	// shed), in total and by backend.
	shed, degraded                   *obs.Counter
	shedByBackend, degradedByBackend *obs.Vec[obs.Counter]

	// DeadlineExceeded counts client requests that exhausted their
	// deadline budget across all retries.
	DeadlineExceeded *obs.Counter

	// Scatter-gather batch fan-out: jobs and their items, sub-batches
	// forwarded by backend, and items answered degraded (their coarse
	// event, or an error marker) after their shard failed.
	FanoutJobs, FanoutItems, FanoutDegraded *obs.Counter
	FanoutSubBatches                        *obs.Vec[obs.Counter] // backend

	// StoreTransfers counts answers whose threshold came through the
	// hetstore transfer path, by backend and mode: "skip" for a
	// probe-verified transfer, "warm" for a warm-started search.
	StoreTransfers *obs.Vec[obs.Counter]
	// Probes counts /healthz probe outcomes by backend and "ok"|"fail".
	Probes *obs.Vec[obs.Counter]

	// stages is the span sink's per-stage histogram family.
	stages *obs.Vec[obs.Histogram]

	// breakerStates reports live breaker positions at scrape time; set
	// by the Gateway that owns the breakers, before it serves.
	breakerStates func() map[string]BreakerState
}

// NewMetrics returns a registry with every hetgate family registered,
// in exposition order.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r, started: time.Now()}
	m.upstream = r.CounterVec("hetgate_upstream_requests_total", "Requests proxied to backends.", "backend", "code")
	m.Retries = r.Counter("hetgate_retries_total", "Retry rounds after a failed attempt.")
	m.Coalesced = r.Counter("hetgate_coalesced_total", "Requests coalesced into an identical in-flight upstream call.")
	m.shed = r.Counter("hetgate_shed_total", "Requests shed (HTTP 429) by backends.")
	m.degraded = r.Counter("hetgate_degraded_total", "Degraded-but-usable answers (cached or static fallback under shed) from backends.")
	m.DeadlineExceeded = r.Counter("hetgate_deadline_exceeded_total", "Client requests that exhausted their deadline budget.")
	m.shedByBackend = r.CounterVec("hetgate_shed_by_backend_total", "Requests shed (HTTP 429), by backend.", "backend")
	m.degradedByBackend = r.CounterVec("hetgate_degraded_by_backend_total", "Degraded answers, by backend.", "backend")
	m.FanoutJobs = r.Counter("hetgate_fanout_batches_total", "Batch jobs scattered across the ring.")
	m.FanoutItems = r.Counter("hetgate_fanout_items_total", "Items across all fanned-out batch jobs.")
	m.FanoutDegraded = r.Counter("hetgate_fanout_degraded_total", "Batch items answered degraded after their shard failed.")
	m.FanoutSubBatches = r.CounterVec("hetgate_fanout_subbatches_total", "Sub-batches forwarded, by backend.", "backend")
	m.StoreTransfers = r.CounterVec("hetgate_store_transfers_total", "Threshold-store transfers observed on backend answers, by mode (skip = probe-verified, warm = warm-started search).", "backend", "mode")
	m.Probes = r.CounterVec("hetgate_health_probes_total", "Health-prober outcomes by backend.", "backend", "outcome")
	r.GaugeFunc("hetgate_breaker_state", "Circuit breaker position by backend (0 closed, 1 open, 2 half-open).", []string{"backend", "state"}, func(emit obs.Emit) {
		if m.breakerStates == nil {
			return
		}
		for backend, s := range m.breakerStates() {
			emit(float64(s), backend, s.String())
		}
	})
	r.GaugeFunc("hetgate_uptime_seconds", "Seconds since the gateway started.", nil, func(emit obs.Emit) {
		emit(time.Since(m.started).Seconds())
	})
	m.latency = r.HistogramVec("hetgate_upstream_duration_seconds", "Upstream latency by backend.", upstreamBuckets, "backend")
	// Stage profiles come from the span sink: every finished span feeds
	// a histogram keyed by its name (forward/upstream/http.estimate).
	m.stages = r.Stages("hetgate_stage_seconds")
	return m
}

// Upstream records one proxied request to backend with the given
// status code (0 for a transport error) and its gateway-observed
// latency.
func (m *Metrics) Upstream(backend string, code int, elapsed time.Duration) {
	label := "err"
	if code > 0 {
		label = strconv.Itoa(code)
	}
	m.upstream.With(backend, label).Inc()
	m.latency.With(backend).Observe(elapsed.Seconds())
}

// Shed records one 429 answer from backend — its admission controller
// refused the request.
func (m *Metrics) Shed(backend string) {
	m.shed.Inc()
	m.shedByBackend.With(backend).Inc()
}

// Degraded records one degraded-but-usable answer from backend.
func (m *Metrics) Degraded(backend string) {
	m.degraded.Inc()
	m.degradedByBackend.With(backend).Inc()
}

// FanoutJob records one batch job split across the ring, with its item
// count.
func (m *Metrics) FanoutJob(items int) {
	m.FanoutJobs.Inc()
	m.FanoutItems.Add(uint64(items))
}

// Counts returns the retry and coalesce totals. The second result, the
// hedge count of a gateway that no longer hedges, is always 0; it stays
// because the bench ledger reads three results.
func (m *Metrics) Counts() (retries, hedges, coalesced uint64) {
	return m.Retries.Value(), 0, m.Coalesced.Value()
}

// ResilienceCounts returns the shed/degraded/deadline totals summed
// over backends.
func (m *Metrics) ResilienceCounts() (shed, degraded, deadlines uint64) {
	return m.shed.Value(), m.degraded.Value(), m.DeadlineExceeded.Value()
}

// WriteTo renders the registry in the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }
