package hetsim

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Scenario is an analytic N-device partition workload over a
// MultiPlatform: a divisible volume of irregular work on the continuum
// [0, 1], cut into contiguous segments by a core.Partition (segment i
// goes to platform device i, in Device order). The work density is
// front-loaded and the irregularity grows toward the tail, so the
// optimal share vector is a genuine function of the input shape — not
// the FLOPS-ratio vector NaiveStatic would pick — which is exactly
// what the Identify stage has to discover.
//
// Per evaluation the model charges, all through Device.Time:
//
//   - each accelerator's input transfer, serialized on the shared link
//     (segments stream one after another over one PCIe bus);
//   - each device's compute kernel, ops from the density integral over
//     its segment, irregularity from the segment's CV profile,
//     overlapped across devices (each accelerator starts when its
//     transfer completes);
//   - a CPU-side merge pass proportional to the total output.
//
// Everything is closed-form and O(N) per evaluation, deterministic,
// and allocation-free — the properties the simplex-search benchmarks
// and the exhaustive gold standard need.
type Scenario struct {
	ScenarioSpec
	name string
}

// ScenarioSpec parameterizes a Scenario.
type ScenarioSpec struct {
	// Platform supplies the devices; nil selects DefaultMulti(2).
	Platform *MultiPlatform
	// Ops is the total scalar work volume.
	Ops int64
	// Bytes is the total input size in bytes.
	Bytes int64
	// OutBytes is the output volume merged on the CPU.
	OutBytes int64
	// ParallelFraction is the kernels' Amdahl fraction.
	ParallelFraction float64
	// Skew in [0, 1) tilts the work density toward the front of the
	// input: density(x) = 1 + Skew·(1-2x), mean 1.
	Skew float64
	// CV is the irregularity at the front of the input; the profile
	// grows linearly to CV·(1+CVSlope) at the tail.
	CV float64
	// CVSlope is the relative irregularity growth across the input.
	CVSlope float64
}

func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if s.Platform == nil {
		s.Platform = DefaultMulti(2)
	}
	if s.Ops <= 0 {
		s.Ops = 2e9
	}
	if s.Bytes <= 0 {
		s.Bytes = 800e6
	}
	if s.OutBytes <= 0 {
		s.OutBytes = s.Bytes / 10
	}
	if s.ParallelFraction <= 0 {
		s.ParallelFraction = 0.95
	}
	return s
}

// NewScenario builds the workload.
func NewScenario(name string, spec ScenarioSpec) *Scenario {
	return &Scenario{ScenarioSpec: spec.withDefaults(), name: name}
}

// Name implements core.PartitionWorkload.
func (s *Scenario) Name() string { return s.name }

// Devices implements core.PartitionWorkload.
func (s *Scenario) Devices() int { return s.Platform.Devices() }

// workFrac integrates the density over [a, b] ⊆ [0, 1].
func (s *Scenario) workFrac(a, b float64) float64 {
	return (b - a) * (1 + s.Skew*(1-(a+b)))
}

// cvAt returns the irregularity of the segment [a, b]: the profile's
// value at the segment midpoint.
func (s *Scenario) cvAt(a, b float64) float64 {
	return s.CV * (1 + s.CVSlope*(a+b)/2)
}

// segmentKernel describes device i's compute over [a, b].
func (s *Scenario) segmentKernel(a, b float64) Kernel {
	wf := s.workFrac(a, b)
	return Kernel{
		Name:             "scenario-segment",
		Ops:              int64(float64(s.Ops) * wf),
		Bytes:            int64(float64(s.Bytes) * (b - a)),
		Launches:         1,
		ParallelFraction: s.ParallelFraction,
		IrregularityCV:   s.cvAt(a, b),
	}
}

// EvaluatePartition implements core.PartitionWorkload. Safe for
// concurrent use: the model only reads the spec.
func (s *Scenario) EvaluatePartition(p core.Partition) (time.Duration, error) {
	n := s.Devices()
	if err := p.ValidateFor(n, "the platform"); err != nil {
		return 0, err
	}
	var (
		cut      float64 // running cumulative fraction
		linkBusy time.Duration
		wall     time.Duration
	)
	for i := 0; i < n; i++ {
		a := cut
		b := cut + p[i]/100
		if b > 1 {
			b = 1
		}
		cut = b
		dev := s.Platform.Device(i)
		if b <= a {
			continue
		}
		ready := time.Duration(0)
		if i > 0 {
			// Accelerator: its segment streams over the shared link
			// after every earlier transfer.
			k := s.segmentKernel(a, b)
			linkBusy += s.Platform.Link.Transfer(k.Bytes)
			ready = linkBusy
		}
		t := ready + dev.Time(s.segmentKernel(a, b))
		if t > wall {
			wall = t
		}
	}
	merge := s.Platform.CPU.Time(Kernel{
		Name:             "scenario-merge",
		Ops:              s.OutBytes / 4,
		Bytes:            s.OutBytes,
		Launches:         1,
		ParallelFraction: s.ParallelFraction,
	})
	return wall + merge, nil
}

// SamplePartition implements core.SampledPartition: the miniature is
// the same continuum shrunk by sampleFrac, with the shape parameters
// perturbed by sampling noise — a uniform sample of a skewed input
// estimates the skew and the irregularity with some error, and that
// error is what the Extrapolate-stage accuracy experiments measure.
// The sample cost is one CPU streaming scan of the full input.
func (s *Scenario) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	const sampleFrac = 0.05
	spec := s.ScenarioSpec
	spec.Ops = int64(float64(spec.Ops) * sampleFrac)
	spec.Bytes = int64(float64(spec.Bytes) * sampleFrac)
	spec.OutBytes = int64(float64(spec.OutBytes) * sampleFrac)
	// ±4% relative noise on the shape parameters, deterministic in r.
	noise := func() float64 { return 1 + 0.08*(r.Float64()-0.5) }
	spec.Skew *= noise()
	spec.CV *= noise()
	spec.CVSlope *= noise()
	sampled := NewScenario(s.name+"-sample", spec)
	cost := s.Platform.CPU.Time(Kernel{
		Name:             "scenario-sample-scan",
		Ops:              s.Ops / 8,
		Bytes:            s.Bytes,
		Launches:         1,
		ParallelFraction: 1,
	})
	return sampled, cost, nil
}

// ExtrapolatePartition implements core.SampledPartition: the share
// vector is scale-free (segments of a continuum), so extrapolation is
// the identity.
func (s *Scenario) ExtrapolatePartition(p core.Partition) core.Partition { return p }

// EstimatePartitionByRace implements core.PartitionRaceEstimator: all
// devices process the whole input independently and the observed rates
// (inverse completion times) become the coarse shares. The race stops
// when the fastest device finishes, so its cost is the minimum time.
func (s *Scenario) EstimatePartitionByRace() (core.Partition, time.Duration, error) {
	n := s.Devices()
	shares := make(core.Partition, n)
	var (
		total float64
		race  time.Duration
	)
	for i := 0; i < n; i++ {
		t := s.Platform.Device(i).Time(s.segmentKernel(0, 1))
		if i > 0 {
			t += s.Platform.Link.Transfer(s.Bytes)
		}
		if i == 0 || t < race {
			race = t
		}
		shares[i] = 1 / t.Seconds()
		total += shares[i]
	}
	var sum float64
	for i := 0; i < n-1; i++ {
		shares[i] = 100 * shares[i] / total
		sum += shares[i]
	}
	shares[n-1] = 100 - sum
	return shares, race, nil
}
