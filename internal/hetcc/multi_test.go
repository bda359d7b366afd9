package hetcc

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

func TestMultiRunCorrectness(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 600, 1400, 31)
	ref := dfsRef(g)
	alg := NewMultiAlgorithm(hetsim.DefaultMulti(2))
	for _, p := range []core.Partition{
		{0, 0, 100}, {100, 0, 0}, {0, 100, 0}, {30, 30, 40},
		{10, 80, 10}, {50, 50, 0}, {33.3, 33.3, 33.4},
	} {
		res, err := alg.Run(g, p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if res.Components != ref.Components {
			t.Errorf("p=%v: components %d, want %d", p, res.Components, ref.Components)
		}
		for v := range ref.Labels {
			if res.Labels[v] != ref.Labels[v] {
				t.Fatalf("p=%v: label[%d] mismatch", p, v)
			}
		}
	}
}

func TestMultiRunAcrossKinds(t *testing.T) {
	alg := NewMultiAlgorithm(hetsim.DefaultMulti(3))
	for _, kind := range []graph.GenKind{graph.KindRMAT, graph.KindRoad} {
		g := testGraph(t, kind, 900, 2500, 33)
		ref := dfsRef(g)
		res, err := alg.Run(g, core.Partition{20, 40, 20, 20})
		if err != nil {
			t.Fatal(err)
		}
		if res.Components != ref.Components {
			t.Errorf("%v: components %d, want %d", kind, res.Components, ref.Components)
		}
		if len(res.DeviceTimes) != 4 {
			t.Errorf("%v: device times %d", kind, len(res.DeviceTimes))
		}
	}
}

func TestMultiSharesValidation(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 50, 80, 35)
	alg := NewMultiAlgorithm(hetsim.DefaultMulti(2))
	cases := []struct {
		name string
		p    core.Partition
	}{
		{"wrong-length", core.Partition{50, 50}},
		{"negative", core.Partition{-1, 50, 51}},
		{"under-100", core.Partition{10, 10, 10}},
		{"over-100", core.Partition{80, 80, 80}},
	}
	for _, tc := range cases {
		_, err := alg.Run(g, tc.p)
		if err == nil {
			t.Errorf("%s: %v accepted", tc.name, tc.p)
			continue
		}
		var pe *core.PartitionError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not *core.PartitionError", tc.name, err)
		}
	}
	if _, err := alg.Run(nil, core.Partition{10, 10, 80}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestMultiSecondGPUHelps(t *testing.T) {
	// With a second accelerator available, the best vector split must
	// beat the best split that leaves it idle.
	g := testGraph(t, graph.KindMesh, 12000, 48000, 37)
	alg := NewMultiAlgorithm(hetsim.DefaultMulti(2))
	w := NewMultiWorkload("mesh", g, alg)
	both, err := core.SimplexSearch{}.SearchPartition(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Leaving GPU 1 idle: the last device's share forced to 0.
	idleBest := math.Inf(1)
	for t0 := 0.0; t0 <= 100; t0 += 5 {
		d, err := w.EvaluatePartition(core.Partition{t0, 100 - t0, 0})
		if err != nil {
			t.Fatal(err)
		}
		if d.Seconds() < idleBest {
			idleBest = d.Seconds()
		}
	}
	if both.BestTime.Seconds() >= idleBest {
		t.Errorf("vector optimum %v does not beat single-accelerator %vs",
			both.BestTime, idleBest)
	}
}

func TestMultiPartitionEstimate(t *testing.T) {
	g := testGraph(t, graph.KindRMAT, 16384, 120000, 39)
	alg := NewMultiAlgorithm(hetsim.DefaultMulti(2))
	w := NewMultiWorkload("rmat", g, alg)
	w.SampleSize = 4 * DefaultSampleSize(g.N)
	est, err := core.EstimatePartition(context.Background(), w, core.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Partition) != 3 {
		t.Fatalf("partition = %v", est.Partition)
	}
	if err := est.Partition.Validate(); err != nil {
		t.Fatalf("estimated partition invalid: %v", err)
	}
	estTime, err := w.EvaluatePartition(est.Partition)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.SimplexSearch{}.SearchPartition(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if float64(estTime) > 1.6*float64(full.BestTime) {
		t.Errorf("vector estimate %v (%v) vs searched optimum %v (%v)",
			est.Partition, estTime, full.Best, full.BestTime)
	}
	if est.Overhead() >= full.Cost/3 {
		t.Errorf("estimation overhead %v not well below full search cost %v",
			est.Overhead(), full.Cost)
	}
}

// TestTwoDeviceParity — the N-device workload on one accelerator is the
// CPU+GPU workload: the same simulated duration at every integer share
// and a few fractional ones, on the full graph and on a sample, for a
// FEM, a web and a road replica. The replicas run as parallel subtests;
// the race detector would make the full-graph sweeps take minutes.
func TestTwoDeviceParity(t *testing.T) {
	if raceEnabled {
		t.Skip("evaluates three full replicas 212 times each; runs without -race")
	}
	shares := []float64{0.05, 12.5, 33.3, 66.67, 99.95}
	for r := 0; r <= 100; r++ {
		shares = append(shares, float64(r))
	}
	for _, name := range []string{"cant", "web-BerkStan", "netherlands_osm"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := datasets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := d.Graph()
			if err != nil {
				t.Fatal(err)
			}
			w := NewWorkload(name, g, NewAlgorithm(hetsim.Default()))
			mw := NewMultiWorkload(name, g, NewMultiAlgorithm(hetsim.DefaultMulti(1)))
			ctx := context.Background()
			sw, scost, err := w.Sample(ctx, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			smw, mcost, err := mw.SamplePartition(ctx, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if scost != mcost {
				t.Errorf("sample cost %v, N-device %v", scost, mcost)
			}
			for _, c := range []struct {
				graph string
				w     core.Workload
				mw    core.PartitionWorkload
			}{{"full", w, mw}, {"sample", sw, smw}} {
				for _, r := range shares {
					want, err := c.w.Evaluate(r)
					if err != nil {
						t.Fatal(err)
					}
					got, err := c.mw.EvaluatePartition(core.Partition{r, 100 - r})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s r=%v: N-device %v, CPU+GPU %v", c.graph, r, got, want)
					}
				}
			}
		})
	}
}
