// Package hetdense implements the heterogeneous dense matrix
// multiplication used by the paper's Fig. 1 motivation study: C = A×B
// with the first t% of A's rows multiplied on the CPU (MKL in the
// paper) and the rest on the GPU (cuBLAS), overlapped.
//
// Dense GEMM is the regular-workload counterpoint to the three
// irregular case studies: its per-row work is uniform, so the
// FLOPS-ratio static split (NaiveStatic) is already near optimal and
// the sampling framework's estimate agrees with it — exactly the
// contrast the paper's introduction draws.
package hetdense

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// Cost-model constants: dense GEMM streams blocked panels, so both
// devices run near their peak rates; 2 ops per multiply-add (mul+add),
// and blocked reuse keeps bytes per flop low.
const (
	opsPerFlop   = 2
	bytesPerFlop = 1
	bytesPerElem = 8
)

// Algorithm holds the execution configuration for heterogeneous GEMM.
type Algorithm struct {
	Platform *hetsim.Platform
}

// NewAlgorithm returns an Algorithm on the given platform. The
// algorithm is a two-device one: it runs on the CPU and GPUs[0] and
// leaves any further accelerator idle.
func NewAlgorithm(p *hetsim.Platform) *Algorithm {
	return &Algorithm{Platform: p}
}

// timeParts computes the phase durations for multiplying an n×m by an
// m×k at CPU share t%.
func (a *Algorithm) timeParts(n, m, k int, t float64) (cpuT, gpuT time.Duration) {
	splitRow := int(float64(n) * t / 100)
	cpuFlops := int64(splitRow) * int64(m) * int64(k)
	gpuFlops := int64(n-splitRow) * int64(m) * int64(k)
	if cpuFlops > 0 {
		cpuT = a.Platform.CPU.Time(hetsim.Kernel{
			Name:             "gemm-cpu",
			Ops:              opsPerFlop * cpuFlops,
			Bytes:            bytesPerFlop * cpuFlops,
			Launches:         a.Platform.CPU.Spec.Cores,
			ParallelFraction: 0.99,
		})
	}
	if gpuFlops > 0 {
		// Ship the GPU's slice of A, all of B, and the result back.
		// GEMM offload is double-buffered: panel transfers stream
		// behind compute, so the GPU side is bound by the slower of
		// the two rather than their sum.
		moved := int64(n-splitRow)*int64(m) + int64(m)*int64(k) + int64(n-splitRow)*int64(k)
		transfer := a.Platform.Link.Transfer(bytesPerElem * moved)
		compute := a.Platform.GPUs[0].Time(hetsim.Kernel{
			Name:             "gemm-gpu",
			Ops:              opsPerFlop * gpuFlops,
			Bytes:            bytesPerFlop * gpuFlops,
			Launches:         1,
			ParallelFraction: 1,
		})
		gpuT = hetsim.Overlap(compute, transfer)
	}
	return cpuT, gpuT
}

// SimTime returns the simulated duration of multiplying an n×m matrix
// by an m×k matrix with CPU share t%.
func (a *Algorithm) SimTime(n, m, k int, t float64) (time.Duration, error) {
	if t < 0 || t > 100 {
		return 0, fmt.Errorf("hetdense: threshold %v outside [0, 100]", t)
	}
	if n <= 0 || m <= 0 || k <= 0 {
		return 0, fmt.Errorf("hetdense: invalid dims %dx%d × %dx%d", n, m, m, k)
	}
	cpuT, gpuT := a.timeParts(n, m, k, t)
	return hetsim.Overlap(cpuT, gpuT), nil
}

// Workload adapts heterogeneous GEMM (square n×n matrices) to the core
// framework. The threshold is the CPU's row share in percent.
type Workload struct {
	name string
	alg  *Algorithm
	n    int
}

var _ core.Sampled = (*Workload)(nil)

// NewWorkload wraps an n×n GEMM instance.
func NewWorkload(name string, n int, alg *Algorithm) (*Workload, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hetdense: n = %d", n)
	}
	return &Workload{name: name, alg: alg, n: n}, nil
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "densemm/" + w.name }

// Evaluate implements core.Workload.
func (w *Workload) Evaluate(t float64) (time.Duration, error) {
	return w.alg.SimTime(w.n, w.n, w.n, t)
}

// Sample implements core.Sampled: a dense matrix is perfectly regular,
// so the miniature is simply an n/4 × n/4 instance (any submatrix has
// the same uniform structure). The cost charges the submatrix copy.
func (w *Workload) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.dense")
	defer span.Finish()
	sn := w.n / 4
	if sn < 1 {
		sn = 1
	}
	inner := &Workload{name: w.name + "-sample", alg: w.alg, n: sn}
	cost := w.alg.Platform.CPU.Time(hetsim.Kernel{
		Name:             "gemm-sample",
		Ops:              int64(sn) * int64(sn),
		Bytes:            bytesPerElem * int64(sn) * int64(sn),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	return inner, cost, nil
}

// Extrapolate implements core.Sampled (identity: regular work).
func (w *Workload) Extrapolate(t float64) float64 { return t }
