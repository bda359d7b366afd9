package obs

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	trace := NewTraceID()
	span := NewSpanID()
	v := FormatTraceparent(trace, span)
	gotTrace, gotSpan, err := ParseTraceparent(v)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", v, err)
	}
	if gotTrace != trace || gotSpan != span {
		t.Errorf("round trip: got (%s, %s), want (%s, %s)", gotTrace, gotSpan, trace, span)
	}
	if !strings.HasPrefix(v, "00-") || !strings.HasSuffix(v, "-01") {
		t.Errorf("traceparent %q: want version 00 and sampled flags", v)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"not-a-traceparent",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // 3 fields
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",    // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902-01",    // short parent id
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-00f067aa0ba902b7-01",  // non-hex trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-zzzzzzzzzzzzzzzz-01",  // non-hex parent id
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // all-zero parent id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-001", // bad flags length
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",  // non-hex flags
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // uppercase version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",  // uppercase parent id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A",  // uppercase flags
	} {
		if _, _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q): want error, got nil", bad)
		}
	}
}

// FuzzParseTraceparent holds the traceparent reader to W3C
// trace-context on any header value: no panic, and an accepted value
// has two lowercase hex digits of version and of flags, and trace and
// span IDs that are its own lowercase fields and re-format to the same
// IDs.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		trace, span, err := ParseTraceparent(v)
		if err != nil {
			return
		}
		parts := strings.Split(strings.TrimSpace(v), "-")
		for _, field := range []string{parts[0], parts[3]} {
			if len(field) != 2 || strings.Trim(field, "0123456789abcdef") != "" {
				t.Fatalf("ParseTraceparent(%q) accepted version/flags %q, want two lowercase hex digits", v, field)
			}
		}
		if parts[1] != trace.String() || parts[2] != span.String() {
			t.Fatalf("ParseTraceparent(%q) = (%s, %s), not its own trace and parent fields", v, trace, span)
		}
		gotTrace, gotSpan, err := ParseTraceparent(FormatTraceparent(trace, span))
		if err != nil || gotTrace != trace || gotSpan != span {
			t.Fatalf("ParseTraceparent(%q) = (%s, %s), re-formatted parses to (%s, %s, %v)", v, trace, span, gotTrace, gotSpan, err)
		}
	})
}

func TestStartSpanNesting(t *testing.T) {
	sink := NewSink(16, nil)
	ctx := WithScope(context.Background(), Scope{Service: "test", Sink: sink})

	ctx, root := StartSpan(ctx, "root")
	if root == nil {
		t.Fatal("root span is nil under a scoped context")
	}
	if !root.TraceID.IsValid() {
		t.Error("root span has no trace ID")
	}
	if root.Parent.IsValid() {
		t.Errorf("root span has parent %s, want zero", root.Parent)
	}

	_, child := StartSpan(ctx, "child")
	if child.TraceID != root.TraceID {
		t.Errorf("child trace %s != root trace %s", child.TraceID, root.TraceID)
	}
	if child.Parent != root.SpanID {
		t.Errorf("child parent %s != root span %s", child.Parent, root.SpanID)
	}
	if child.Service != "test" {
		t.Errorf("child service %q, want %q", child.Service, "test")
	}

	child.RecordError(errors.New("boom"))
	child.Finish()
	child.Finish() // idempotent: only the first call records
	root.Finish()

	if stored, total := sink.Stats(); stored != 2 || total != 2 {
		t.Errorf("sink holds %d/%d spans, want 2/2", stored, total)
	}
	recs := sink.Spans()
	if recs[0].Name != "child" || recs[0].Error != "boom" {
		t.Errorf("first record = %+v, want child with error", recs[0])
	}
}

func TestStartSpanContinuesRemoteTrace(t *testing.T) {
	remote, parent, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink(4, nil)
	ctx := WithScope(context.Background(), Scope{
		Service: "test", Sink: sink, RemoteTrace: remote, RemoteParent: parent,
	})
	_, sp := StartSpan(ctx, "server")
	if sp.TraceID != remote {
		t.Errorf("span trace %s, want remote %s", sp.TraceID, remote)
	}
	if sp.Parent != parent {
		t.Errorf("span parent %s, want remote %s", sp.Parent, parent)
	}
}

func TestStartSpanNoScopeIsFree(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("span without scope = %+v, want nil", sp)
	}
	// All methods are nil-safe, so instrumented code needs no branches.
	sp.SetAttr("k", "v")
	sp.RecordError(errors.New("x"))
	sp.Finish()
	if d := sp.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Errorf("context carries span %+v, want none", got)
	}
}

func TestDetachPreservesObservability(t *testing.T) {
	sink := NewSink(4, nil)
	ctx := WithScope(context.Background(), Scope{Service: "test", Sink: sink})
	ctx = WithRequestID(ctx, "req-1")
	ctx, sp := StartSpan(ctx, "server")

	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	out := Detach(cancelled)
	if out.Err() != nil {
		t.Fatalf("detached context already done: %v", out.Err())
	}
	if got := SpanFromContext(out); got != sp {
		t.Errorf("detached span = %p, want %p", got, sp)
	}
	if got := RequestID(out); got != "req-1" {
		t.Errorf("detached request ID = %q, want req-1", got)
	}
	_, child := StartSpan(out, "forward")
	if child.TraceID != sp.TraceID || child.Parent != sp.SpanID {
		t.Error("span started on detached context left the original trace")
	}
}

func TestInjectWritesHeaders(t *testing.T) {
	sink := NewSink(4, nil)
	ctx := WithScope(context.Background(), Scope{Service: "test", Sink: sink})
	ctx = WithRequestID(ctx, "req-7")
	ctx, sp := StartSpan(ctx, "client")

	h := make(http.Header)
	Inject(ctx, h)
	trace, parent, err := ParseTraceparent(h.Get(TraceparentHeader))
	if err != nil {
		t.Fatalf("injected traceparent: %v", err)
	}
	if trace != sp.TraceID || parent != sp.SpanID {
		t.Errorf("injected (%s, %s), want (%s, %s)", trace, parent, sp.TraceID, sp.SpanID)
	}
	if got := h.Get(RequestIDHeader); got != "req-7" {
		t.Errorf("injected request ID %q, want req-7", got)
	}

	// Without a span or request ID, Inject leaves the headers alone.
	empty := make(http.Header)
	Inject(context.Background(), empty)
	if len(empty) != 0 {
		t.Errorf("Inject on bare context wrote %v", empty)
	}
}
