package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across services (16 bytes,
// rendered as 32 lowercase hex digits, W3C trace-context style).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

// String renders the ID as lowercase hex.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsValid reports whether the ID is non-zero (the all-zero ID is
// invalid per the trace-context spec).
func (id TraceID) IsValid() bool { return id != TraceID{} }

// String renders the ID as lowercase hex.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsValid reports whether the ID is non-zero.
func (id SpanID) IsValid() bool { return id != SpanID{} }

// idSeq salts generated IDs so two IDs drawn in the same nanosecond
// still differ even if crypto/rand ever fails.
var idSeq atomic.Uint64

func randomBytes(b []byte) {
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, fall back to a time+counter pattern rather than zero IDs.
		binary.BigEndian.PutUint64(b, uint64(time.Now().UnixNano())+idSeq.Add(1))
	}
}

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	var id TraceID
	randomBytes(id[:])
	return id
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var id SpanID
	randomBytes(id[:])
	return id
}

// Span is one timed operation in a trace. Spans form a tree: the
// gateway's server span parents its upstream calls, whose trace
// context propagates to the backend's server span, which parents the
// cache/pool/pipeline-stage spans inside the estimation core.
//
// A span is owned by the goroutine that started it; SetAttr,
// RecordError and Finish are not safe for concurrent use on one span
// (distinct spans are independent). A finished span is immutable:
// its sink keeps it and renders it only when read, so SetAttr and
// RecordError after Finish are ignored. All methods tolerate a nil
// receiver, so instrumented code needs no "is tracing on?" branches.
type Span struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID // zero for a local root
	Name    string
	Service string
	Start   time.Time
	End     time.Time
	Err     string
	Attrs   map[string]string

	sink  *Sink
	ended atomic.Bool
}

// SetAttr records a key/value annotation on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended.Load() {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
}

// RecordError marks the span failed. A nil error is ignored.
func (s *Span) RecordError(err error) {
	if s == nil || err == nil || s.ended.Load() {
		return
	}
	s.Err = err.Error()
}

// Finish closes the span and records it into its sink. Idempotent:
// only the first call records.
func (s *Span) Finish() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.End = time.Now()
	if s.sink != nil {
		s.sink.Observe(s)
	}
}

// Duration returns End-Start (zero before Finish).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

type ctxKey int

const (
	spanCtxKey ctxKey = iota
	scopeCtxKey
	requestIDCtxKey
)

// Scope is the tracing environment a context carries before any span
// exists: which sink finished spans go to, the service name stamped on
// them, and (optionally) a remote parent extracted from an incoming
// traceparent header.
type Scope struct {
	Service string
	Sink    *Sink
	// RemoteTrace/RemoteParent seed the next root span so it continues
	// a trace started by an upstream service.
	RemoteTrace  TraceID
	RemoteParent SpanID
}

// WithScope returns a context carrying sc; StartSpan uses it to create
// root spans.
func WithScope(ctx context.Context, sc Scope) context.Context {
	return context.WithValue(ctx, scopeCtxKey, sc)
}

func scopeFrom(ctx context.Context) (Scope, bool) {
	sc, ok := ctx.Value(scopeCtxKey).(Scope)
	return sc, ok
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey).(*Span)
	return sp
}

// StartSpan opens a span named name: a child of the context's current
// span if one exists, otherwise a root under the context's Scope. On a
// context with neither it returns (ctx, nil) — the nil span's methods
// are no-ops, so instrumentation is free when tracing is off.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{Name: name, SpanID: NewSpanID(), Start: time.Now()}
	if parent := SpanFromContext(ctx); parent != nil {
		sp.TraceID = parent.TraceID
		sp.Parent = parent.SpanID
		sp.Service = parent.Service
		sp.sink = parent.sink
	} else if sc, ok := scopeFrom(ctx); ok && sc.Sink != nil {
		sp.Service = sc.Service
		sp.sink = sc.Sink
		if sc.RemoteTrace.IsValid() {
			sp.TraceID = sc.RemoteTrace
			sp.Parent = sc.RemoteParent
		} else {
			sp.TraceID = NewTraceID()
		}
	} else {
		return ctx, nil
	}
	return context.WithValue(ctx, spanCtxKey, sp), sp
}

// WithRequestID returns a context carrying the request correlation ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDCtxKey, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDCtxKey).(string)
	return id
}

// Detach returns a fresh context (no deadline, never cancelled) that
// preserves ctx's observability state: current span, scope, and
// request ID. Use it for work that must outlive one caller — e.g. a
// singleflight leader whose upstream call serves a whole herd — while
// keeping its spans in the originating trace.
func Detach(ctx context.Context) context.Context {
	out := context.Background()
	if sc, ok := scopeFrom(ctx); ok {
		out = WithScope(out, sc)
	}
	if sp := SpanFromContext(ctx); sp != nil {
		out = context.WithValue(out, spanCtxKey, sp)
	}
	if id := RequestID(ctx); id != "" {
		out = WithRequestID(out, id)
	}
	return out
}
