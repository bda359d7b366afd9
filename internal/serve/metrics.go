package serve

import (
	"io"
	"strconv"
	"time"

	"repro/internal/obs"
)

// latencyBuckets are the upper bounds (seconds) of the request latency
// histogram, chosen to straddle both cache hits (~µs) and full
// estimation runs on Table II replicas (~ms to seconds).
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics is the daemon's observability surface, one obs.Registry
// exposed at /metrics. Everything is low-cardinality by construction:
// labels are the known workload names, HTTP status codes, batch-item
// outcomes and pipeline stage names. Call sites record events on the
// exported counters directly.
type Metrics struct {
	reg     *obs.Registry
	started time.Time

	requests *obs.Vec[obs.Counter]   // workload, code
	latency  *obs.Vec[obs.Histogram] // workload
	inFlight *obs.Gauge

	// Result-cache and build-cache accounting; Coalesced counts
	// estimations answered by an identical in-flight pipeline run.
	CacheHits, CacheMisses, Coalesced *obs.Counter
	BuildHits, BuildMisses            *obs.Counter

	// Overload-protection accounting (internal/resilience): requests
	// shed by admission control and requests that exceeded their
	// (propagated) deadline.
	Shed, DeadlineExceeded *obs.Counter

	// Batch (/estimate-batch) accounting: jobs started, items carried
	// by those jobs, jobs rejected before any work (bad manifest or
	// over the size limits), and per-item outcomes (refined, cached,
	// shed, deadline, invalid, error).
	BatchJobs, BatchItems, BatchRejected *obs.Counter
	BatchOutcomes                        *obs.Vec[obs.Counter] // outcome

	// Threshold-store (hetstore) accounting: lookups that found a
	// transferable neighbor, warm-started searches, probe-verified
	// skips of Identify, probes attempted and probes rejected.
	StoreHits, StoreWarmStarts, StoreSkips *obs.Counter
	StoreProbes, StoreRejects              *obs.Counter

	// Threshold-evaluation accounting, fed by the estimation core via
	// core.EvalObserver: evaluations currently executing (across all
	// pipelines and their parallel workers) and the lifetime total.
	evalsInFlight *obs.Gauge
	evalsTotal    *obs.Counter

	// Evaluation-memo accounting: full-input evaluations of dataset
	// workloads answered from the build cache's memo, and those that
	// missed it and ran.
	EvalMemoHits, EvalMemoMisses *obs.Counter

	// stages is the span sink's per-stage histogram family.
	stages *obs.Vec[obs.Histogram]

	// Scrape-time callbacks, set by the Server before it serves: live
	// cache occupancy and evictions, threshold-store entry count (nil
	// when the store is disabled), and admission-controller state.
	cacheStats     func() CacheStats
	storeStats     func() int
	admissionStats func() AdmissionStats
}

// AdmissionStats is a point-in-time snapshot of the admission
// controller, rendered at /metrics.
type AdmissionStats struct {
	CostInUse int64
	CostLimit int64
}

// NewMetrics returns a registry with every hetserve family registered,
// in exposition order.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r, started: time.Now()}
	m.requests = r.CounterVec("hetserve_requests_total", "Completed estimation requests.", "workload", "code")
	m.CacheHits = r.Counter("hetserve_cache_hits_total", "Estimations served from the result cache.")
	m.CacheMisses = r.Counter("hetserve_cache_misses_total", "Estimations that ran the sampling pipeline.")
	r.GaugeFunc("hetserve_cache_hit_ratio", "Cache hits over all lookups.", nil, func(emit obs.Emit) { emit(m.CacheHitRatio()) })
	m.Coalesced = r.Counter("hetserve_coalesced_total", "Estimations coalesced into an identical in-flight pipeline run.")
	r.GaugeFunc("hetserve_cache_entries", "Result-cache entries currently held.", nil,
		fromCallback(&m.cacheStats, func(c CacheStats) float64 { return float64(c.Len) }))
	r.CounterFunc("hetserve_cache_evictions_total", "Result-cache entries evicted under capacity pressure.", nil,
		fromCallback(&m.cacheStats, func(c CacheStats) float64 { return float64(c.Evictions) }))
	m.BuildHits = r.Counter("hetserve_workload_build_hits_total", "Workload constructions served from the build cache.")
	m.BuildMisses = r.Counter("hetserve_workload_build_misses_total", "Workload constructions that parsed and profiled the input.")
	m.Shed = r.Counter("hetserve_shed_total", "Requests shed by admission control with 429.")
	m.DeadlineExceeded = r.Counter("hetserve_deadline_exceeded_total", "Requests that ran out of their (propagated) deadline budget.")
	m.BatchJobs = r.Counter("hetserve_batch_jobs_total", "Accepted /estimate-batch jobs.")
	m.BatchItems = r.Counter("hetserve_batch_items_total", "Items carried by accepted batch jobs.")
	m.BatchRejected = r.Counter("hetserve_batch_rejected_total", "Batch jobs rejected before any work (bad manifest or over limits).")
	m.BatchOutcomes = r.CounterVec("hetserve_batch_item_outcomes_total", "Terminal batch-item outcomes.", "outcome")
	m.StoreHits = r.Counter("hetserve_store_hits_total", "Store lookups that found a transferable neighbor.")
	m.StoreWarmStarts = r.Counter("hetserve_store_warm_starts_total", "Searches warm-started from a store neighbor.")
	m.StoreSkips = r.Counter("hetserve_store_skips_total", "Identify phases skipped via probe-verified transfer.")
	m.StoreProbes = r.Counter("hetserve_store_probes_total", "Transfer-verification probes attempted.")
	m.StoreRejects = r.Counter("hetserve_store_rejects_total", "Probes that rejected the transferred threshold.")
	r.GaugeFunc("hetserve_store_entries", "Threshold-store entries currently held.", nil,
		fromCallback(&m.storeStats, func(n int) float64 { return float64(n) }))
	r.GaugeFunc("hetserve_admission_cost_in_flight", "Estimated evaluation cost currently admitted.", nil,
		fromCallback(&m.admissionStats, func(a AdmissionStats) float64 { return float64(a.CostInUse) }))
	r.GaugeFunc("hetserve_admission_cost_limit", "Admission capacity in evaluation-cost units.", nil,
		fromCallback(&m.admissionStats, func(a AdmissionStats) float64 { return float64(a.CostLimit) }))
	m.inFlight = r.Gauge("hetserve_in_flight_requests", "Requests currently being handled.")
	m.evalsInFlight = r.Gauge("hetserve_evaluations_in_flight", "Threshold evaluations currently executing across all pipelines.")
	m.evalsTotal = r.Counter("hetserve_evaluations_total", "Threshold evaluations performed since start.")
	m.EvalMemoHits = r.Counter("hetserve_eval_memo_hits_total", "Full-input evaluations answered from the evaluation memo.")
	m.EvalMemoMisses = r.Counter("hetserve_eval_memo_misses_total", "Full-input evaluations of dataset workloads that missed the evaluation memo and ran.")
	r.GaugeFunc("hetserve_uptime_seconds", "Seconds since the daemon started.", nil, func(emit obs.Emit) {
		emit(time.Since(m.started).Seconds())
	})
	m.latency = r.HistogramVec("hetserve_request_duration_seconds", "Request latency by workload.", latencyBuckets, "workload")
	// Stage profiles come from the span sink: every finished span feeds
	// a histogram keyed by its name (sample/identify/extrapolate/...).
	m.stages = r.Stages("hetserve_stage_seconds")
	return m
}

// fromCallback reads one value through a callback the Server sets after
// construction; the family is left out of scrapes while it is unset.
func fromCallback[T any](fn *func() T, read func(T) float64) func(obs.Emit) {
	return func(emit obs.Emit) {
		if *fn != nil {
			emit(read((*fn)()))
		}
	}
}

// RequestStarted increments the in-flight gauge; the returned func
// decrements it and records the terminal status and latency. A
// workload outside cc, spmm, scalefree and batch is recorded as
// "unknown", so no request can add a label value.
func (m *Metrics) RequestStarted(workload string) func(code int, elapsed time.Duration) {
	switch workload {
	case WorkloadCC, WorkloadSpMM, WorkloadScaleFree, "batch":
	default:
		workload = "unknown"
	}
	m.inFlight.Add(1)
	return func(code int, elapsed time.Duration) {
		m.inFlight.Add(-1)
		m.requests.With(workload, strconv.Itoa(code)).Inc()
		m.latency.With(workload).Observe(elapsed.Seconds())
	}
}

// BatchJob records one accepted /estimate-batch job carrying n items.
func (m *Metrics) BatchJob(n int) {
	m.BatchJobs.Inc()
	m.BatchItems.Add(uint64(n))
}

// EvalStarted implements core.EvalObserver.
func (m *Metrics) EvalStarted() {
	m.evalsInFlight.Add(1)
	m.evalsTotal.Inc()
}

// EvalDone implements core.EvalObserver.
func (m *Metrics) EvalDone() { m.evalsInFlight.Add(-1) }

// EvalsTotal returns the lifetime threshold-evaluation count.
func (m *Metrics) EvalsTotal() uint64 { return m.evalsTotal.Value() }

// CacheCounts returns the hit/miss/coalesce totals.
func (m *Metrics) CacheCounts() (hits, misses, coalesced uint64) {
	return m.CacheHits.Value(), m.CacheMisses.Value(), m.Coalesced.Value()
}

// BuildCounts returns the build-cache hit/miss totals.
func (m *Metrics) BuildCounts() (hits, misses uint64) {
	return m.BuildHits.Value(), m.BuildMisses.Value()
}

// ResilienceCounts returns the shed and deadline totals. The second
// and third results are always 0: they counted degraded answers, which
// a shed request no longer gets, and stale cache entries, which never
// exist because every answer is a deterministic function of its
// request. They stay because the benchmark reads four results.
func (m *Metrics) ResilienceCounts() (shed, _, _, deadlineExceeded uint64) {
	return m.Shed.Value(), 0, 0, m.DeadlineExceeded.Value()
}

// StoreCounts returns the store counter totals. The sixth result is
// always 0: it counted background re-estimations, and store entries
// are never re-estimated because each is a verified answer for its
// own input and platform. It stays because the benchmark reads six
// results.
func (m *Metrics) StoreCounts() (hits, warmStarts, skips, probes, rejects, _ uint64) {
	return m.StoreHits.Value(), m.StoreWarmStarts.Value(), m.StoreSkips.Value(),
		m.StoreProbes.Value(), m.StoreRejects.Value(), 0
}

// CacheHitRatio returns hits / (hits + misses), or 0 before any lookup.
func (m *Metrics) CacheHitRatio() float64 {
	hits, misses := m.CacheHits.Value(), m.CacheMisses.Value()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// SetCacheStats registers the live cache-occupancy callback. Like the
// other Set methods, call it before the first scrape.
func (m *Metrics) SetCacheStats(fn func() CacheStats) { m.cacheStats = fn }

// SetStoreStats registers the live threshold-store entry count.
func (m *Metrics) SetStoreStats(fn func() int) { m.storeStats = fn }

// SetAdmissionStats registers the admission controller's live state.
func (m *Metrics) SetAdmissionStats(fn func() AdmissionStats) { m.admissionStats = fn }

// WriteTo renders the registry in the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }
