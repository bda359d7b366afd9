package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerGeneratesAndEchoesRequestID(t *testing.T) {
	sink := NewSink(8, nil)
	h := Handler(HTTPOptions{Service: "test", Sink: sink}, "http.test",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if RequestID(r.Context()) == "" {
				t.Error("handler context has no request ID")
			}
			w.WriteHeader(204)
		}))

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/test", nil))
	id := rr.Header().Get(RequestIDHeader)
	if len(id) != 16 {
		t.Errorf("generated request ID %q, want 16 hex digits", id)
	}

	// A well-formed client ID is honored verbatim.
	req := httptest.NewRequest("GET", "/test", nil)
	req.Header.Set(RequestIDHeader, "client-id_42.x")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(RequestIDHeader); got != "client-id_42.x" {
		t.Errorf("request ID %q, want the client's", got)
	}

	// Hostile IDs (log injection, oversized) are replaced.
	for _, bad := range []string{"evil\nid", "a b", strings.Repeat("x", 65)} {
		req := httptest.NewRequest("GET", "/test", nil)
		req.Header.Set(RequestIDHeader, bad)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if got := rr.Header().Get(RequestIDHeader); got == bad || got == "" {
			t.Errorf("hostile ID %q: echoed %q, want a fresh one", bad, got)
		}
	}
}

func TestHandlerContinuesRemoteTrace(t *testing.T) {
	sink := NewSink(8, nil)
	h := Handler(HTTPOptions{Service: "test", Sink: sink}, "http.test",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req := httptest.NewRequest("GET", "/test", nil)
	req.Header.Set(TraceparentHeader, parent)
	h.ServeHTTP(httptest.NewRecorder(), req)

	spans := sink.Spans()
	if len(spans) != 1 {
		t.Fatalf("sink holds %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("server span trace %s, want the remote trace", sp.TraceID)
	}
	if sp.ParentID != "00f067aa0ba902b7" {
		t.Errorf("server span parent %s, want the remote span", sp.ParentID)
	}
	if sp.Name != "http.test" || sp.Attrs["method"] != "GET" {
		t.Errorf("server span = %+v", sp)
	}
}

func TestHandlerLogsWithTraceIDs(t *testing.T) {
	sink := NewSink(8, nil)
	var buf bytes.Buffer
	logger := NewLogger(&buf, "test", slog.LevelInfo, false)
	h := Handler(HTTPOptions{Service: "test", Sink: sink, Logger: logger}, "http.test",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(500)
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/boom", nil))

	line := buf.String()
	for _, want := range []string{"level=ERROR", "route=http.test", "status=500", "trace_id=", "request_id=", "service=test"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
	// The logged trace ID is the server span's, so logs join traces.
	spans := sink.Spans()
	if len(spans) != 1 || !strings.Contains(line, "trace_id="+spans[0].TraceID) {
		t.Errorf("log line does not carry the span's trace ID: %s", line)
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rr.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", rr.Code)
	}
}
