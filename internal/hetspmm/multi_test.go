package hetspmm

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func testMultiWorkload(t *testing.T, gpus, n, nnz int, seed uint64) *Workload {
	t.Helper()
	m := testMatrix(t, sparse.ClassPowerLaw, n, nnz, seed)
	w, err := NewMultiWorkload("t", m, NewMultiAlgorithm(hetsim.DefaultMulti(gpus)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMultiCutsMonotone(t *testing.T) {
	w := testMultiWorkload(t, 3, 600, 9000, 41)
	prof := w.Profile()
	for _, p := range []core.Partition{
		{25, 25, 25, 25}, {0, 0, 0, 100}, {100, 0, 0, 0},
		{0, 50, 0, 50}, {10, 20, 30, 40}, {97, 1, 1, 1},
	} {
		cuts := make([]int, len(p)+1)
		prof.cuts(p, cuts)
		if cuts[0] != 0 || cuts[len(p)] != prof.a.Rows {
			t.Fatalf("p=%v: cuts %v do not span [0, %d]", p, cuts, prof.a.Rows)
		}
		for i := 1; i <= len(p); i++ {
			if cuts[i] < cuts[i-1] {
				t.Fatalf("p=%v: cuts %v not monotone", p, cuts)
			}
		}
	}
}

func TestSimTimeMultiValidation(t *testing.T) {
	w := testMultiWorkload(t, 2, 300, 3000, 43)
	var pe *core.PartitionError
	for _, p := range []core.Partition{
		{50, 50},        // wrong length for 3 devices
		{50, 60, -10},   // negative
		{30, 30, 30},    // under 100
		{nan(), 50, 50}, // not finite
	} {
		if _, err := w.EvaluatePartition(p); !errors.As(err, &pe) {
			t.Errorf("p=%v: err %v, want *core.PartitionError", p, err)
		}
	}
}

func nan() float64 { var z float64; return z / z }

// TestSimTimeMultiMatchesScalarShape — with all work on the CPU or all
// on GPU 0, the k-way simulation must order the same way as the scalar
// landscape's endpoints, and a mixed split must beat at least one
// endpoint (the overlap is real).
func TestSimTimeMultiShape(t *testing.T) {
	w := testMultiWorkload(t, 2, 800, 16000, 45)
	eval := func(p core.Partition) float64 {
		d, err := w.EvaluatePartition(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return d.Seconds()
	}
	cpuOnly := eval(core.Partition{100, 0, 0})
	gpuOnly := eval(core.Partition{0, 100, 0})
	mixed := eval(core.Partition{30, 40, 30})
	worst := cpuOnly
	if gpuOnly > worst {
		worst = gpuOnly
	}
	if mixed >= worst {
		t.Errorf("mixed split %v not below worst single device (cpu %v, gpu %v)",
			mixed, cpuOnly, gpuOnly)
	}
}

// TestMultiEvaluateAllocFree pins the partition evaluation hot path at
// zero allocations, like the two-device Evaluate.
func TestMultiEvaluateAllocFree(t *testing.T) {
	w := testMultiWorkload(t, 3, 400, 6000, 47)
	p := core.Partition{20, 30, 25, 25}
	if _, err := w.EvaluatePartition(p); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := w.EvaluatePartition(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("EvaluatePartition allocates %.1f per run, want 0", avg)
	}
}

func TestMultiSampleAndExtrapolate(t *testing.T) {
	w := testMultiWorkload(t, 2, 640, 9600, 49)
	inner, cost, err := w.SamplePartition(context.Background(), xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Errorf("sample cost %v", cost)
	}
	mi := inner.(*Workload)
	if mi.Profile().a.Rows != 160 {
		t.Errorf("sample rows %d, want n/4 = 160", mi.Profile().a.Rows)
	}
	if !mi.Profile().Resident {
		t.Error("sample not marked resident")
	}
	p := core.Partition{25, 40, 35}
	if got := w.ExtrapolatePartition(p.Clone()); !reflect.DeepEqual(got, p) {
		t.Errorf("extrapolate %v, want identity %v", got, p)
	}
	sampleT, err := inner.EvaluatePartition(p)
	if err != nil {
		t.Fatal(err)
	}
	fullT, err := w.EvaluatePartition(p)
	if err != nil {
		t.Fatal(err)
	}
	if sampleT >= fullT {
		t.Errorf("sample evaluation %v not cheaper than full %v", sampleT, fullT)
	}
}

func TestMultiRaceEstimate(t *testing.T) {
	w := testMultiWorkload(t, 2, 500, 8000, 51)
	shares, cost, err := w.EstimatePartitionByRace()
	if err != nil {
		t.Fatal(err)
	}
	if err := shares.Validate(); err != nil {
		t.Errorf("race shares %v: %v", shares, err)
	}
	if len(shares) != 3 || cost <= 0 {
		t.Errorf("race = %v, %v", shares, cost)
	}
	times := make([]time.Duration, 3)
	w.alg.deviceTimes(w.Profile(), times)
	for i := 1; i < len(times); i++ {
		// Inverse-time shares: a strictly faster device gets a strictly
		// larger share.
		if (times[i] < times[0]) != (shares[i] > shares[0]) {
			t.Errorf("share order %v disagrees with device times %v", shares, times)
		}
	}
}

// TestParallelMultiSpmmDeterminism — the multi-device estimation is
// bit-identical at any parallelism, at 3 and 4 devices over several
// seeds. Its sample evaluations are cheap profile lookups, so the many
// small race-then-fine windows recycle the parallel engine's pooled
// batches back to back while pool workers still hold older ones; CI
// repeats it under -race for that reason.
func TestParallelMultiSpmmDeterminism(t *testing.T) {
	for gpus := 2; gpus <= 3; gpus++ {
		w := testMultiWorkload(t, gpus, 512, 7000, 53)
		for seed := uint64(31); seed < 35; seed++ {
			cfg := func(par int) core.Config {
				return core.Config{Seed: seed, Repeats: 3, Parallelism: par, Searcher: core.RaceThenFine{Window: 4}}
			}
			seq, err := core.EstimatePartition(context.Background(), w, cfg(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := core.EstimatePartition(context.Background(), w, cfg(8))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%d devices, seed %d: P=1 %+v != P=8 %+v", gpus+1, seed, seq, par)
			}
			if err := seq.Partition.Validate(); err != nil {
				t.Errorf("%d devices, seed %d: estimated partition %v: %v", gpus+1, seed, seq.Partition, err)
			}
		}
	}
}

// parityShares are the CPU shares the two-device parity tests sweep:
// every integer share plus a few fractional ones.
func parityShares() []float64 {
	var out []float64
	for r := 0; r <= 100; r++ {
		out = append(out, float64(r))
	}
	return append(out, 0.05, 12.5, 33.3, 66.67, 99.95)
}

// TestTwoDeviceParity — the N-device workload on one accelerator is the
// CPU+GPU workload: the same simulated duration at every share, on the
// full input and on a resident sample, for a FEM, a web and a road
// replica.
func TestTwoDeviceParity(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"cant", "web-BerkStan", "netherlands_osm"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(name, m, NewAlgorithm(hetsim.Default()))
		if err != nil {
			t.Fatal(err)
		}
		mw, err := NewMultiWorkload(name, m, NewMultiAlgorithm(hetsim.DefaultMulti(1)))
		if err != nil {
			t.Fatal(err)
		}
		sw, scost, err := w.Sample(ctx, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		smw, mcost, err := mw.SamplePartition(ctx, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if scost != mcost {
			t.Errorf("%s: sample cost %v, N-device %v", name, scost, mcost)
		}
		for _, c := range []struct {
			graph string
			w     core.Workload
			mw    core.PartitionWorkload
		}{{"full", w, mw}, {"sample", sw, smw}} {
			for _, r := range parityShares() {
				want, err := c.w.Evaluate(r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.mw.EvaluatePartition(core.Partition{r, 100 - r})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s %s r=%v: N-device %v, CPU+GPU %v", name, c.graph, r, got, want)
				}
			}
		}
	}
}

// TestTwoDeviceRaceParity — the N-device race on one accelerator is
// the CPU+GPU race: the same coarse shares, bit for bit, and the same
// race cost on every Table II replica.
func TestTwoDeviceRaceParity(t *testing.T) {
	for _, d := range datasets.All() {
		m, err := d.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(d.Name, m, NewAlgorithm(hetsim.Default()))
		if err != nil {
			t.Fatal(err)
		}
		mw, err := NewMultiWorkload(d.Name, m, NewMultiAlgorithm(hetsim.DefaultMulti(1)))
		if err != nil {
			t.Fatal(err)
		}
		g, cost, err := w.EstimateByRace()
		if err != nil {
			t.Fatal(err)
		}
		p, mcost, err := mw.EstimatePartitionByRace()
		if err != nil {
			t.Fatal(err)
		}
		if want := (core.Partition{g, 100 - g}); !reflect.DeepEqual(p, want) || mcost != cost {
			t.Errorf("%s: N-device race %v (%v), CPU+GPU %v (%v)", d.Name, p, mcost, want, cost)
		}
	}
}
