package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
)

// Header names used for cross-service propagation.
const (
	// TraceparentHeader carries trace identity in the W3C
	// trace-context format: "00-<32 hex trace>-<16 hex span>-<2 hex flags>".
	TraceparentHeader = "traceparent"
	// RequestIDHeader carries the request correlation ID; honored on
	// ingress and echoed on every response.
	RequestIDHeader = "X-Request-ID"
)

// FormatTraceparent renders the version-00 traceparent header value
// for the given trace/span pair (sampled flag always set — this repo
// traces every request into a bounded ring).
func FormatTraceparent(trace TraceID, span SpanID) string {
	return fmt.Sprintf("00-%s-%s-01", trace, span)
}

// ParseTraceparent parses a version-00 traceparent header value. Per
// W3C trace-context every field is lowercase hex of a fixed width, the
// version is not ff, and neither ID is all zeros.
func ParseTraceparent(v string) (TraceID, SpanID, error) {
	var trace TraceID
	var span SpanID
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 {
		return trace, span, fmt.Errorf("obs: traceparent %q: want 4 dash-separated fields, got %d", v, len(parts))
	}
	if !isLowerHex(parts[0], 2) || parts[0] == "ff" {
		return trace, span, fmt.Errorf("obs: traceparent %q: bad version %q", v, parts[0])
	}
	if !isLowerHex(parts[1], 32) {
		return trace, span, fmt.Errorf("obs: traceparent %q: trace-id must be 32 lowercase hex digits", v)
	}
	if !isLowerHex(parts[2], 16) {
		return trace, span, fmt.Errorf("obs: traceparent %q: parent-id must be 16 lowercase hex digits", v)
	}
	if !isLowerHex(parts[3], 2) {
		return trace, span, fmt.Errorf("obs: traceparent %q: bad flags %q", v, parts[3])
	}
	// Both IDs passed isLowerHex, so neither decode can fail.
	_, _ = hex.Decode(trace[:], []byte(parts[1]))
	_, _ = hex.Decode(span[:], []byte(parts[2]))
	if !trace.IsValid() {
		return trace, span, fmt.Errorf("obs: traceparent %q: all-zero trace-id", v)
	}
	if !span.IsValid() {
		return trace, span, fmt.Errorf("obs: traceparent %q: all-zero parent-id", v)
	}
	return trace, span, nil
}

// isLowerHex reports whether s is exactly n lowercase hex digits.
func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Inject writes the context's trace identity (traceparent, from the
// current span) and request ID into h, so an outbound HTTP call
// continues the caller's trace on the next service.
func Inject(ctx context.Context, h http.Header) {
	if sp := SpanFromContext(ctx); sp != nil {
		h.Set(TraceparentHeader, FormatTraceparent(sp.TraceID, sp.SpanID))
	}
	if id := RequestID(ctx); id != "" {
		h.Set(RequestIDHeader, id)
	}
}
