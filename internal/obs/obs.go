// Package obs is the repo's observability subsystem: request-scoped
// tracing, structured logging, pipeline-stage profiling and metrics —
// all standard library.
//
// The paper's framework is a three-stage pipeline (Sample → Identify →
// Extrapolate); debugging partitioning decisions requires seeing where
// an estimate's time goes, not just whole-request latency. This
// package provides the four pieces the serving stack (hetgate →
// hetserve → internal/core) shares:
//
//   - Tracing: a context-carried span tree. StartSpan opens a child of
//     the context's current span (or a root under the context's
//     Scope), and End records the finished span into a Sink. Trace
//     identity crosses process boundaries via W3C-style traceparent
//     headers (Inject on the client, Handler on the server), so one
//     trace ID follows a request from the gateway through a backend
//     into the core searchers.
//
//   - Structured logging: NewLogger builds a log/slog logger whose
//     records automatically carry trace_id, span_id and request_id
//     drawn from the context (ContextHandler).
//
//   - Profiling: the Sink doubles as a stage profiler — every finished
//     span feeds a fixed-bucket latency histogram keyed by span name,
//     the <service>_stage_seconds family of the daemon's Registry.
//     Recent traces are browsable as JSON at /debug/spans
//     (Sink.Handler), and RegisterPprof wires net/http/pprof into a
//     mux behind an opt-in flag.
//
//   - Metrics: a Registry holds every family a daemon exposes —
//     atomic Counters and Gauges, Vec families whose label names are
//     fixed at registration, Histograms, and func families read at
//     scrape time — and Registry.WriteTo is the one writer of the
//     Prometheus text format 0.0.4. A scrape snapshots every value
//     before it writes, so no lock is held while the scraper reads.
//
// Everything is low-cardinality by construction: span names are
// static stage labels ("sample", "identify", "extrapolate", ...), so
// the stage histograms stay bounded, and callers map outside input to
// a fixed set of label values before recording it.
package obs
