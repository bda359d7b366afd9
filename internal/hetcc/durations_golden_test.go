package hetcc

// Duration golden for every CC evaluation path. Identify, the simplex
// search and the estimate gap all consume these simulated durations, so
// a change to the runner may move wall-clock time and allocations but
// never a single nanosecond of simulated time. The golden holds, for
// every Table II replica on its full graph and on its seed-7 contracted
// sample:
//
//	cc2 — Workload.Evaluate at thresholds 0..100;
//	cc3 — 3-device EvaluatePartition on a share grid (CPU share in
//	      steps of 7, first accelerator in steps of 9, zeros included);
//	cc4 — 4-device EvaluatePartition with every share a multiple of 20.
//
// Regenerate (only when a simulated-time change is intended) with
//
//	go test ./internal/hetcc -run TestDurationGolden -update

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/durations.golden from the current code")

const durationGoldenPath = "testdata/durations.golden"

// goldenGrid3 is the 3-device share grid.
func goldenGrid3() []core.Partition {
	var out []core.Partition
	for a := 0; a <= 100; a += 7 {
		for b := 0; a+b <= 100; b += 9 {
			out = append(out, core.Partition{float64(a), float64(b), float64(100 - a - b)})
		}
	}
	return out
}

// goldenGrid4 is the coarse 4-device share grid.
func goldenGrid4() []core.Partition {
	var out []core.Partition
	for a := 0; a <= 100; a += 20 {
		for b := 0; a+b <= 100; b += 20 {
			for c := 0; a+b+c <= 100; c += 20 {
				out = append(out, core.Partition{float64(a), float64(b), float64(c), float64(100 - a - b - c)})
			}
		}
	}
	return out
}

func formatShares(p core.Partition) string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, "/")
}

// durationGoldenRows evaluates every golden case with the current code,
// one "<set> <dataset> <full|sample> <threshold or shares> <ns>" line
// per case.
func durationGoldenRows(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	var rows []string
	for _, d := range datasets.All() {
		g, err := d.Graph()
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorkload(d.Name, g, NewAlgorithm(hetsim.Default()))
		sw, _, err := w.Sample(ctx, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			graph string
			w     core.Workload
		}{{"full", w}, {"sample", sw}} {
			for th := 0; th <= 100; th++ {
				ns, err := c.w.Evaluate(float64(th))
				if err != nil {
					t.Fatalf("%s %s t=%d: %v", d.Name, c.graph, th, err)
				}
				rows = append(rows, fmt.Sprintf("cc2 %s %s %d %d", d.Name, c.graph, th, ns.Nanoseconds()))
			}
		}
		for _, m := range []struct {
			set  string
			accs int
			grid []core.Partition
		}{{"cc3", 2, goldenGrid3()}, {"cc4", 3, goldenGrid4()}} {
			mw := NewMultiWorkload(d.Name, g, NewMultiAlgorithm(hetsim.DefaultMulti(m.accs)))
			smw, _, err := mw.SamplePartition(ctx, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				graph string
				w     core.PartitionWorkload
			}{{"full", mw}, {"sample", smw}} {
				for _, p := range m.grid {
					ns, err := c.w.EvaluatePartition(p)
					if err != nil {
						t.Fatalf("%s %s %v: %v", d.Name, c.graph, p, err)
					}
					rows = append(rows, fmt.Sprintf("%s %s %s %s %d", m.set, d.Name, c.graph, formatShares(p), ns.Nanoseconds()))
				}
			}
		}
	}
	return rows
}

// TestDurationGolden pins every simulated duration of the golden grid
// exactly.
func TestDurationGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("evaluates every Table II replica; runs without -short and -race")
	}
	got := durationGoldenRows(t)
	if *updateGolden {
		if err := os.WriteFile(durationGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(durationGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden rows computed, %d recorded", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 10 {
				t.Errorf("row %d: got %q, golden %q", i+1, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rows differ from the golden", bad, len(got))
	}
}
