package hetspmm

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// DefaultSampleDivisor is K in the paper's sampler: the sample is an
// n/K × n/K uniform submatrix, with K = 4 ("We use 4 as the value of K
// in our experiments").
const DefaultSampleDivisor = 4

// Workload adapts heterogeneous SpMM (computing A×A, as the paper's
// experiments do) to the core partitioning framework. The threshold is
// the split percentage r: the share of the work volume processed on
// the CPU.
type Workload struct {
	name string
	alg  *Algorithm
	prof *Profile
	// SampleDivisor is K; the sample is n/K × n/K. 0 means 4.
	SampleDivisor int
}

var (
	_ core.Sampled       = (*Workload)(nil)
	_ core.RaceEstimator = (*Workload)(nil)
)

// NewWorkload profiles A×A on alg's platform and wraps it for split
// estimation. On a platform with more than one accelerator the split
// leaves all but the first idle.
func NewWorkload(name string, a *sparse.CSR, alg *Algorithm) (*Workload, error) {
	prof, err := profileSquare(name, a, alg)
	if err != nil {
		return nil, err
	}
	return &Workload{name: name, alg: alg, prof: prof}, nil
}

// profileSquare profiles A×A for a workload named name on alg's
// platform, which needs at least one accelerator and at most
// MaxDevices devices.
func profileSquare(name string, a *sparse.CSR, alg *Algorithm) (*Profile, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("hetspmm: A must be square to form A×A, got %dx%d", a.Rows, a.Cols)
	}
	if n := alg.Platform.Devices(); n < 2 || n > MaxDevices {
		return nil, fmt.Errorf("hetspmm: platform has %d devices, want 2 to %d", n, MaxDevices)
	}
	prof, err := NewProfile(a, a)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: profiling %s: %w", name, err)
	}
	return prof, nil
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "spmm/" + w.name }

// Matrix returns the underlying input A.
func (w *Workload) Matrix() *sparse.CSR { return w.prof.a }

// Profile returns the cached prefix profile.
func (w *Workload) Profile() *Profile { return w.prof }

// Evaluate implements core.Workload via the prefix profile (identical
// to Run's charged time; see TestProfileTimeMatchesRun). It is safe
// for concurrent use: SimTime only reads the profile's prefix sums,
// which are built once in NewProfile and never mutated afterwards.
func (w *Workload) Evaluate(r float64) (time.Duration, error) {
	return w.alg.SimTime(w.prof, r)
}

// Sample implements core.Sampled: A' is an n/K × n/K submatrix of A
// chosen uniformly at random (Section IV-A), which preserves the
// sparsity structure of A in expectation. The cost charges the CPU
// for extracting and compacting the submatrix, and the host for the
// profile pass over A' (the load vector of the sample).
func (w *Workload) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.spmm")
	defer span.Finish()
	sub, cost, err := drawSample(span, r, w.prof.a, w.alg.Platform.CPU, w.alg.Platform.Link, 1, w.name, w.SampleDivisor)
	if err != nil {
		span.RecordError(err)
		return nil, 0, err
	}
	inner, err := NewWorkload(w.name+"-sample", sub, w.alg)
	if err != nil {
		return nil, 0, err
	}
	// The sample is shipped to the GPU once and stays resident for
	// the whole Identify search.
	inner.prof.Resident = true
	return inner, cost, nil
}

// drawSample is the sampler body Sample and SamplePartition share: it
// draws an n/K × n/K uniform submatrix of a (K = divisor, default
// DefaultSampleDivisor) and returns it with its simulated cost —
// shipping the sample to each of accels accelerators, extracting and
// compacting it on cpu, and one profile pass over it. span, which may
// be nil, receives the sample's shape.
func drawSample(span *obs.Span, r *xrand.Rand, a *sparse.CSR, cpu *hetsim.Device, link *hetsim.Link, accels int64, name string, divisor int) (*sparse.CSR, time.Duration, error) {
	if divisor <= 0 {
		divisor = DefaultSampleDivisor
	}
	n := a.Rows
	size := max(n/divisor, 1)
	span.SetAttr("rows", strconv.Itoa(n))
	span.SetAttr("sample_rows", strconv.Itoa(size))
	sub, err := sparse.UniformSubmatrix(r, a, size, size)
	if err != nil {
		return nil, 0, fmt.Errorf("hetspmm: sampling %s: %w", name, err)
	}
	span.SetAttr("sample_nnz", strconv.Itoa(sub.NNZ()))
	cost := link.Transfer(accels * 2 * bytesPerNNZ * int64(sub.NNZ()))
	cost += cpu.Time(hetsim.Kernel{
		Name:             "spmm-sample",
		Ops:              int64(a.NNZ()) + int64(n),
		Bytes:            bytesPerNNZ * int64(a.NNZ()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	// Building the sample's profile is part of estimation: one load-
	// vector pass over A' on the CPU.
	cost += cpu.Time(hetsim.Kernel{
		Name:             "spmm-sample-profile",
		Ops:              int64(sub.NNZ()) + int64(sub.Rows),
		Bytes:            8 * int64(sub.NNZ()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	return sub, cost, nil
}

// Extrapolate implements core.Sampled: identity, per Section IV-A
// ("if A' preserves the sparsity structure of A, then we expect that
// r should be identical to r'").
func (w *Workload) Extrapolate(rSample float64) float64 { return rSample }

// EstimateByRace implements core.RaceEstimator, the paper's coarse
// estimation: "multiplying the sample matrices A' and B' on CPU and
// GPU independently in parallel and stop when either of them finishes.
// ... by observing the amount of work processed, we can roughly
// estimate the split percentage". Both devices process the whole
// product at their own rates; when the faster finishes, the work
// fractions are proportional to the rates, so the balanced CPU share
// is t_gpu/(t_cpu + t_gpu). The charged cost is the wall-clock of the
// race (both run concurrently, stopping at the first finisher).
func (w *Workload) EstimateByRace() (float64, time.Duration, error) {
	var times [2]time.Duration
	w.alg.deviceTimes(w.prof, times[:])
	cpu, gpu := times[0], times[1]
	tc, tg := cpu.Seconds(), gpu.Seconds()
	if tc+tg == 0 {
		return 50, 0, nil
	}
	guess := 100 * tg / (tc + tg)
	cost := cpu
	if gpu < cpu {
		cost = gpu
	}
	return guess, cost, nil
}
