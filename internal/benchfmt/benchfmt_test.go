package benchfmt

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestWriteLoadRoundTrip(t *testing.T) {
	rep := Report{GOMAXPROCS: 2, NumCPU: 2, Rows: []Row{
		{Layer: "search", Case: "c", Metric: ParallelSpeedup, Value: 1.7, Unit: "x", Better: "higher", Cores: 8, Min: Bound(1.5)},
		{Layer: "batch", Case: "c", Metric: "errors", Value: 0, Unit: "count", Better: "lower", Max: Bound(0)},
	}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, rep)
	}
}

func TestLoadRejectsUntrustworthyReports(t *testing.T) {
	for name, body := range map[string]string{
		"no rows":      `{"gomaxprocs": 2, "num_cpu": 2, "rows": []}`,
		"old schema":   `{"gomaxprocs": 2, "num_cpu": 2, "cases": [{"speedup": 2}]}`,
		"duplicate":    `{"rows": [{"layer": "l", "case": "c", "metric": "m", "better": "lower"}, {"layer": "l", "case": "c", "metric": "m", "better": "lower"}]}`,
		"no direction": `{"rows": [{"layer": "l", "case": "c", "metric": "m", "value": 1}]}`,
		"not json":     `rows`,
	} {
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: Load error = %v, want one naming the file", name, err)
		}
	}
}

func TestEffectiveCores(t *testing.T) {
	for _, c := range []struct {
		gomaxprocs, numCPU, cores, want int
	}{
		{4, 4, 0, 1}, // unset cores means one
		{4, 4, 8, 4}, // the host caps P
		{2, 4, 8, 2}, // GOMAXPROCS caps it on a bigger host
		{8, 2, 8, 2}, // oversubscribed GOMAXPROCS does not add cores
		{4, 4, 3, 3}, // P below the host
		{0, 0, 8, 1}, // a report without a host stamp
	} {
		rep := Report{GOMAXPROCS: c.gomaxprocs, NumCPU: c.numCPU}
		if got := rep.Effective(Row{Cores: c.cores}); got != c.want {
			t.Errorf("gomaxprocs %d, num_cpu %d, cores %d: e = %d, want %d", c.gomaxprocs, c.numCPU, c.cores, got, c.want)
		}
	}
}
