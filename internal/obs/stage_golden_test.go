package obs

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// TestStageGolden pins the stage-histogram family a Sink feeds, byte
// for byte, on spans of fixed duration: one in the lowest bucket, one
// on a bucket bound, one past every bound, and a stage seen twice.
func TestStageGolden(t *testing.T) {
	r := NewRegistry()
	sink := NewSink(2, r.Stages("test_stage_seconds")) // smaller than the span count: histograms outlive the ring
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, sp := range []struct {
		name string
		d    time.Duration
	}{
		{"sample", 500 * time.Nanosecond},
		{"identify", time.Millisecond},
		{"identify", 300 * time.Millisecond},
		{"extrapolate", 20 * time.Second},
		{"http.estimate", 1500 * time.Millisecond},
	} {
		sink.Observe(&Span{Name: sp.name, Start: t0, End: t0.Add(sp.d)})
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	const path = "testdata/stage.prom"
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
		t.Errorf("stage family differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
