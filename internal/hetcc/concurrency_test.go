package hetcc

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetsim"
)

// TestEvaluateConcurrent hammers one shared Workload with parallel
// Evaluate calls across the threshold range and checks every result
// against a sequential reference. Run with -race this verifies the
// documented guarantee that Run keeps all scratch state local.
func TestEvaluateConcurrent(t *testing.T) {
	g := testGraph(t, graph.KindGNM, 400, 800, 7)
	w := NewWorkload("gnm", g, NewAlgorithm(hetsim.Default()))

	thresholds := make([]float64, 0, 21)
	for th := 0.0; th <= 100; th += 5 {
		thresholds = append(thresholds, th)
	}
	want := make([]time.Duration, len(thresholds))
	for i, th := range thresholds {
		d, err := w.Evaluate(th)
		if err != nil {
			t.Fatalf("t=%v: %v", th, err)
		}
		want[i] = d
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for j := range thresholds {
				i := (j + off) % len(thresholds)
				d, err := w.Evaluate(thresholds[i])
				if err != nil {
					errs <- err
					return
				}
				if d != want[i] {
					t.Errorf("t=%v: concurrent Evaluate = %v, want %v", thresholds[i], d, want[i])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEvaluateConcurrentMulti is TestEvaluateConcurrent for the
// N-device path: one shared MultiWorkload evaluated from 8 goroutines
// across a 3-device share grid (empty ranges included), every result
// checked against a sequential reference. Under -race it verifies that
// the pooled scratch shared with Workload.Evaluate keeps runs apart.
func TestEvaluateConcurrentMulti(t *testing.T) {
	g := testGraph(t, graph.KindRMAT, 600, 2400, 9)
	w := NewMultiWorkload("rmat", g, NewMultiAlgorithm(hetsim.DefaultMulti(2)))
	scalar := NewWorkload("rmat", g, NewAlgorithm(hetsim.Default()))

	var parts []core.Partition
	for a := 0.0; a <= 100; a += 20 {
		for b := 0.0; a+b <= 100; b += 25 {
			parts = append(parts, core.Partition{a, b, 100 - a - b})
		}
	}
	want := make([]time.Duration, len(parts))
	for i, p := range parts {
		d, err := w.EvaluatePartition(p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		want[i] = d
	}
	wantScalar, err := scalar.Evaluate(37)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for j := range parts {
				i := (j + off) % len(parts)
				d, err := w.EvaluatePartition(parts[i])
				if err != nil {
					errs <- err
					return
				}
				if d != want[i] {
					t.Errorf("p=%v: concurrent EvaluatePartition = %v, want %v", parts[i], d, want[i])
					return
				}
				// Interleave the scalar path, which draws from the
				// same scratch pool.
				if j%4 == off%4 {
					if d, err := scalar.Evaluate(37); err != nil || d != wantScalar {
						t.Errorf("t=37: concurrent Evaluate = %v (%v), want %v", d, err, wantScalar)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParallelSearchMatchesSequential runs the real exhaustive search
// on a real CC workload at Parallelism 1 and 8 and requires identical
// SearchResults — the end-to-end determinism guarantee on a workload
// whose Evaluate does genuine algorithm runs.
func TestParallelSearchMatchesSequential(t *testing.T) {
	g := testGraph(t, graph.KindRMAT, 300, 900, 3)
	w := NewWorkload("rmat", g, NewAlgorithm(hetsim.Default()))
	seq, err := core.Exhaustive{Step: 5}.Search(core.WithParallelism(context.Background(), 1), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Exhaustive{Step: 5}.Search(core.WithParallelism(context.Background(), 8), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel search differs:\nseq: %+v\npar: %+v", seq, par)
	}
}
