package obs

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSpansGolden pins the /debug/spans JSON, byte for byte, on spans
// of fixed identity and timing: two traces, a parent and its children,
// attributes, an error and one span evicted by the ring.
func TestSpansGolden(t *testing.T) {
	sink := NewSink(4, nil)
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	traceA := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	traceB := TraceID{15: 1}
	root := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	for _, sp := range []*Span{
		{TraceID: traceB, SpanID: SpanID{7: 9}, Name: "evicted", Start: t0, End: t0.Add(time.Millisecond)},
		{TraceID: traceA, SpanID: SpanID{7: 1}, Parent: root, Service: "hetserve", Name: "cache.lookup",
			Start: t0.Add(time.Microsecond), End: t0.Add(3 * time.Microsecond), Attrs: map[string]string{"hit": "false"}},
		{TraceID: traceA, SpanID: SpanID{7: 2}, Parent: root, Service: "hetserve", Name: "pipeline",
			Start: t0.Add(5 * time.Microsecond), End: t0.Add(1234567 * time.Nanosecond),
			Attrs: map[string]string{"workload": "spmm", "searcher": "race", "repeats": "1"}},
		{TraceID: traceB, SpanID: SpanID{7: 3}, Service: "hetgate", Name: "forward",
			Start: t0.Add(time.Second), End: t0.Add(1500 * time.Millisecond), Err: "upstream: 502 Bad Gateway"},
		{TraceID: traceA, SpanID: root, Service: "hetserve", Name: "http.estimate",
			Start: t0, End: t0.Add(2 * time.Millisecond), Attrs: map[string]string{"status": "200"}},
	} {
		sink.Observe(sp)
	}
	var got strings.Builder
	for _, query := range []string{"", "?trace=" + traceA.String(), "?limit=1"} {
		rr := httptest.NewRecorder()
		sink.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/spans"+query, nil))
		got.WriteString("GET /debug/spans" + query + "\n")
		got.WriteString(rr.Body.String())
	}

	const path = "testdata/spans.json"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("/debug/spans differs from %s:\n--- got\n%s\n--- want\n%s", path, got.String(), want)
	}
}
