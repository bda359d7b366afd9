package hetcc

// Evaluate runs the shared runner without labels: it skips the CPU
// prefix kernel, the label copies and the cross-edge merge, none of
// which the clock reads. These tests hold that time-only run to the
// labelled Run, duration for duration, and check that neither mode
// leaves state in a reused scratch that changes the other's result.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/sparse"
)

// checkEvaluateMatchesRun holds the time-only runner to Run at every
// partition in parts. EvaluatePartition must return Run's time. The
// shared scratch s then runs the partitions alternately labelled (even
// positions) and time-only (odd ones), so each mode follows the other
// on one scratch; each run must reproduce Run's result field for
// field, except that a time-only run leaves Labels and Components
// zero.
func checkEvaluateMatchesRun(t *testing.T, name string, alg *Algorithm, g *graph.Graph, parts []core.Partition, s *splitScratch) {
	t.Helper()
	w := NewMultiWorkload(name, g, alg)
	for k, p := range parts {
		want, err := alg.Run(g, p)
		if err != nil {
			t.Fatalf("%s %v: Run: %v", name, p, err)
		}
		got, err := w.EvaluatePartition(p)
		if err != nil {
			t.Fatalf("%s %v: EvaluatePartition: %v", name, p, err)
		}
		if got != want.Time {
			t.Fatalf("%s %v: EvaluatePartition %v, Run %v", name, p, got, want.Time)
		}
		labelled := k%2 == 0
		if !labelled {
			want.Labels, want.Components = nil, 0
		}
		var res Result
		if err := alg.runInto(g, p, &res, s, labelled); err != nil {
			t.Fatalf("%s %v: runInto(labelled=%v): %v", name, p, labelled, err)
		}
		if diff := sameResult(&res, want); diff != "" {
			t.Fatalf("%s %v, shared scratch, labelled=%v: %s differs from Run", name, p, labelled, diff)
		}
	}
}

// TestEvaluateMatchesRun holds EvaluatePartition to Run's time on
// every Table II replica: two devices at thresholds across [0, 100],
// three and four at the duration golden's share grids.
func TestEvaluateMatchesRun(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every Table II replica in both modes; runs without -short and -race")
	}
	var two []core.Partition
	for _, th := range []float64{0, 1, 17, 33, 50, 60, 99, 100} {
		two = append(two, core.Partition{th, 100 - th})
	}
	cases := []struct {
		alg   *Algorithm
		parts []core.Partition
	}{
		{NewAlgorithm(hetsim.Default()), two},
		{NewMultiAlgorithm(hetsim.DefaultMulti(2)), goldenGrid3()},
		{NewMultiAlgorithm(hetsim.DefaultMulti(3)), goldenGrid4()},
	}
	for _, d := range datasets.All() {
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			g, err := d.Graph()
			if err != nil {
				t.Fatal(err)
			}
			s := new(splitScratch)
			for _, c := range cases {
				checkEvaluateMatchesRun(t, fmt.Sprintf("%s d=%d", d.Name, c.alg.Platform.Devices()), c.alg, g, c.parts, s)
			}
		})
	}
}

// FuzzEvaluateMatchesRun holds the time-only run to Run on small
// graphs decoded from the fuzz bytes: data[0] picks n (up to 255, so
// the CPU prefix reaches the multi-part kernel at 20 workers),
// data[1] the device count 2–4, data[2..4] the leading integer shares
// (each taken modulo what is left of 100; the last device gets the
// rest), and the remaining byte pairs the edges. FromCSR symmetrizes,
// sorts and deduplicates the adjacency, as for an upload.
func FuzzEvaluateMatchesRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 50, 0, 0})
	f.Add([]byte{8, 1, 30, 40, 0, 0, 1, 1, 2, 2, 3, 5, 6, 6, 7})
	f.Add([]byte{120, 2, 60, 10, 20, 0, 119, 1, 118, 59, 61, 60, 60, 5, 9, 70, 71, 40, 41})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := int(data[0])
		devices := int(data[1])%3 + 2
		p := make(core.Partition, devices)
		left := 100
		for i := 0; i < devices-1; i++ {
			share := int(data[2+i]) % (left + 1)
			p[i] = float64(share)
			left -= share
		}
		p[devices-1] = float64(left)
		var rows, cols []int32
		for k := 5; k+1 < len(data) && n > 0; k += 2 {
			rows = append(rows, int32(int(data[k])%n))
			cols = append(cols, int32(int(data[k+1])%n))
		}
		m, err := sparse.FromTriplets(n, n, rows, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromCSR(m)
		if err != nil {
			t.Fatal(err)
		}
		alg := NewMultiAlgorithm(hetsim.DefaultMulti(devices - 1))
		// Labelled, time-only, labelled on one scratch: each mode
		// follows the other.
		checkEvaluateMatchesRun(t, "fuzz", alg, g, []core.Partition{p, p, p}, new(splitScratch))
	})
}
