package hetspmm

import (
	"context"
	"fmt"
	"slices"
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

// MaxDevices bounds the device count of an SpMM run. The evaluation
// hot path keeps its row cuts in a fixed-size stack array so that an
// evaluation allocates nothing.
const MaxDevices = 16

// Workload adapts heterogeneous SpMM (computing A×A, as the paper's
// experiments do) to the core partitioning framework at any device
// count. It implements core.SampledPartition: share i of a partition
// is device i's percentage of the work volume. It also implements
// core.Sampled, whose threshold r — the split percentage, the CPU's
// share of the work volume — is the two-device partition {r, 100 - r};
// on more devices every Evaluate fails with a *core.PartitionError.
type Workload struct {
	name string
	alg  *Algorithm
	prof *Profile
	// SampleDivisor is K; the sample is n/K × n/K. 0 means 4.
	SampleDivisor int
}

var (
	_ core.Sampled                = (*Workload)(nil)
	_ core.RaceEstimator          = (*Workload)(nil)
	_ core.SampledPartition       = (*Workload)(nil)
	_ core.PartitionRaceEstimator = (*Workload)(nil)
)

// NewWorkload profiles A×A and wraps it for partition estimation on
// alg's platform, which needs at least one accelerator and at most
// MaxDevices devices; a one-GPU platform gives the paper's split.
func NewWorkload(name string, a *sparse.CSR, alg *Algorithm) (*Workload, error) {
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
	return &Workload{name: name, alg: alg, prof: prof}, nil
}

// NewMultiWorkload is NewWorkload, named for a platform with several
// accelerators: one Workload serves every device count.
func NewMultiWorkload(name string, a *sparse.CSR, alg *Algorithm) (*Workload, error) {
	return NewWorkload(name, a, alg)
}

// Name implements core.Workload and core.PartitionWorkload.
func (w *Workload) Name() string { return "spmm/" + w.name }

// Matrix returns the underlying input A.
func (w *Workload) Matrix() *sparse.CSR { return w.prof.a }

// Profile returns the cached prefix profile.
func (w *Workload) Profile() *Profile { return w.prof }

// Devices implements core.PartitionWorkload.
func (w *Workload) Devices() int { return w.alg.Platform.Devices() }

// EvaluatePartition implements core.PartitionWorkload via the prefix
// profile (identical to Run's charged time; see
// TestProfileTimeMatchesRun). It allocates nothing and is safe for
// concurrent use: SimTimeMulti only reads the profile's prefix sums,
// which are built once in NewProfile and never mutated afterwards.
func (w *Workload) EvaluatePartition(p core.Partition) (time.Duration, error) {
	return w.alg.SimTimeMulti(w.prof, p)
}

// Evaluate implements core.Workload: EvaluatePartition at the
// two-device partition {r, 100 - r}.
func (w *Workload) Evaluate(r float64) (time.Duration, error) {
	return w.EvaluatePartition(core.Partition{r, 100 - r})
}

// SamplePartition implements core.SampledPartition: A' is an
// n/K × n/K submatrix of A chosen uniformly at random (Section IV-A),
// which preserves the sparsity structure of A in expectation. The cost
// charges shipping the miniature to every accelerator once — it stays
// resident for the whole Identify search — the CPU for extracting and
// compacting the submatrix, and the host for the profile pass over A'
// (the load vector of the sample).
func (w *Workload) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.spmm")
	defer span.Finish()
	divisor := w.SampleDivisor
	if divisor <= 0 {
		divisor = DefaultSampleDivisor
	}
	a, p := w.prof.a, w.alg.Platform
	n := a.Rows
	size := max(n/divisor, 1)
	span.SetAttr("rows", strconv.Itoa(n))
	span.SetAttr("sample_rows", strconv.Itoa(size))
	sub, err := sparse.UniformSubmatrix(r, a, size, size)
	if err != nil {
		err = fmt.Errorf("hetspmm: sampling %s: %w", w.name, err)
		span.RecordError(err)
		return nil, 0, err
	}
	span.SetAttr("sample_nnz", strconv.Itoa(sub.NNZ()))
	cost := p.Link.Transfer(int64(p.Devices()-1) * 2 * bytesPerNNZ * int64(sub.NNZ()))
	cost += p.CPU.Time(hetsim.Kernel{
		Name:             "spmm-sample",
		Ops:              int64(a.NNZ()) + int64(n),
		Bytes:            bytesPerNNZ * int64(a.NNZ()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	// Building the sample's profile is part of estimation: one load-
	// vector pass over A' on the CPU.
	cost += p.CPU.Time(hetsim.Kernel{
		Name:             "spmm-sample-profile",
		Ops:              int64(sub.NNZ()) + int64(sub.Rows),
		Bytes:            8 * int64(sub.NNZ()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	inner, err := NewWorkload(w.name+"-sample", sub, w.alg)
	if err != nil {
		return nil, 0, err
	}
	inner.prof.Resident = true
	return inner, cost, nil
}

// Sample implements core.Sampled: the sampled Workload of
// SamplePartition.
func (w *Workload) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	sw, cost, err := w.SamplePartition(ctx, r)
	if err != nil {
		return nil, 0, err
	}
	return sw.(*Workload), cost, nil
}

// ExtrapolatePartition implements core.SampledPartition: identity, per
// Section IV-A ("if A' preserves the sparsity structure of A, then we
// expect that r should be identical to r'").
func (w *Workload) ExtrapolatePartition(p core.Partition) core.Partition { return p }

// Extrapolate implements core.Sampled: the identity, as
// ExtrapolatePartition.
func (w *Workload) Extrapolate(rSample float64) float64 { return rSample }

// EstimatePartitionByRace implements core.PartitionRaceEstimator, the
// paper's coarse estimation: "multiplying the sample matrices A' and
// B' on CPU and GPU independently in parallel and stop when either of
// them finishes. ... by observing the amount of work processed, we can
// roughly estimate the split percentage". Every device processes the
// whole product at its own rate; when the fastest finishes, the work
// fractions are proportional to the rates (inverse times). Share i is
// 100·Π_{j≠i} t_j / Σ_k Π_{j≠k} t_j, the inverse times with the
// product of all times multiplied out, so at two devices the CPU's
// share is 100·t_gpu/(t_cpu + t_gpu). The last share is 100 minus the
// others. Only a zero denominator (two racers finish at once with
// nothing to do, as on an empty product) falls back to the equal
// split. The charged cost is the wall-clock of the race: the fastest
// device's time.
func (w *Workload) EstimatePartitionByRace() (core.Partition, time.Duration, error) {
	n := w.Devices()
	var timesArr [MaxDevices]time.Duration
	times := timesArr[:n]
	w.alg.deviceTimes(w.prof, times)
	shares := make(core.Partition, n)
	var total float64
	for i := range shares {
		prod := 1.0
		for j, t := range times {
			if j != i {
				prod *= t.Seconds()
			}
		}
		shares[i] = prod
		total += prod
	}
	if total == 0 {
		return core.EqualPartition(n), 0, nil
	}
	var sum float64
	for i := 0; i < n-1; i++ {
		shares[i] = 100 * shares[i] / total
		sum += shares[i]
	}
	shares[n-1] = 100 - sum
	return shares, slices.Min(times), nil
}

// EstimateByRace implements core.RaceEstimator: the CPU's share of
// EstimatePartitionByRace.
func (w *Workload) EstimateByRace() (float64, time.Duration, error) {
	p, cost, err := w.EstimatePartitionByRace()
	if err != nil {
		return 0, 0, err
	}
	return p[0], cost, nil
}
