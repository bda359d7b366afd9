// Package hetsim simulates a heterogeneous CPU+GPU computing platform.
//
// The paper's experiments run on an Intel Xeon E5-2650 paired with an
// NVIDIA K40c over PCI Express. This repository has no GPU, so the
// device layer is replaced by an analytical cost model: workloads
// execute their algorithms for real (producing real labels, real
// matrix products, and real work counters) and then charge simulated
// time through Device.Time, which combines
//
//   - a roofline of compute throughput vs memory bandwidth,
//   - Amdahl-style scaling over the kernel's parallel fraction,
//   - an irregularity penalty proportional to the coefficient of
//     variation of per-item work (branch divergence and uncoalesced
//     access on the GPU, cache misses on the CPU), and
//   - per-launch latency (kernel launch on the GPU, task spawn on the
//     CPU).
//
// Because the inputs to the model are the work counters measured from
// the actual execution, the simulated time landscape over the
// partition threshold is input-dependent exactly as on real hardware,
// while remaining deterministic — which is what the sampling-based
// partitioning framework needs to be evaluated against an exhaustive
// search exactly.
package hetsim

import (
	"fmt"
	"time"
)

// DeviceKind distinguishes latency-optimized from throughput-optimized
// devices.
type DeviceKind int

// Device kinds.
const (
	CPU DeviceKind = iota
	GPU
)

func (k DeviceKind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// DeviceSpec is the static performance description of one device.
type DeviceSpec struct {
	Name string
	Kind DeviceKind

	// Cores is the number of independent execution lanes (CPU
	// hardware threads, or GPU scalar cores).
	Cores int
	// CoreRate is the useful scalar operations per second one lane
	// sustains on regular work.
	CoreRate float64
	// MemBandwidth is the sustainable memory bandwidth in bytes/s
	// for streaming (regular) access.
	MemBandwidth float64
	// LaunchLatency is charged once per kernel launch.
	LaunchLatency time.Duration
	// DivergencePenalty scales compute time by (1 + p·CV) where CV
	// is the kernel's work-irregularity statistic. GPUs pay heavily
	// (warp divergence, load imbalance across SMs); CPUs mildly.
	DivergencePenalty float64
	// RandomAccessPenalty scales memory time by (1 + p·CV):
	// uncoalesced access on GPUs, cache misses on CPUs.
	RandomAccessPenalty float64
}

// Kernel describes one unit of charged work: the operations a workload
// actually performed, measured by its own counters.
type Kernel struct {
	// Name identifies the kernel in traces.
	Name string
	// Ops is the number of scalar operations performed.
	Ops int64
	// Bytes is the memory traffic in bytes.
	Bytes int64
	// Launches is the number of kernel launches (e.g. Shiloach-
	// Vishkin rounds each launch a hook and a jump kernel). Minimum
	// 1 is assumed when work is nonzero.
	Launches int
	// ParallelFraction in [0, 1] is the fraction of Ops that can use
	// all lanes (Amdahl). Sequential algorithms use 0; data-parallel
	// kernels use values near 1.
	ParallelFraction float64
	// IrregularityCV is the coefficient of variation of per-item
	// work, the statistic the divergence and random-access penalties
	// multiply.
	IrregularityCV float64
}

// Device wraps a spec and charges time for kernels.
type Device struct {
	Spec DeviceSpec
}

// Time returns the simulated execution time of k on d. It is a pure
// function of the device spec and the kernel descriptor — no state is
// read or written beyond its arguments — so it is safe to call from
// any number of goroutines (parallel searches evaluate thresholds
// concurrently and every evaluation funnels into Time).
func (d *Device) Time(k Kernel) time.Duration {
	if k.Ops <= 0 && k.Bytes <= 0 {
		return 0
	}
	pf := k.ParallelFraction
	if pf < 0 {
		pf = 0
	}
	if pf > 1 {
		pf = 1
	}
	cv := k.IrregularityCV
	if cv < 0 {
		cv = 0
	}
	cores := float64(d.Spec.Cores)

	// Amdahl: serial part runs on one lane, parallel part on all.
	serialOps := float64(k.Ops) * (1 - pf)
	parallelOps := float64(k.Ops) * pf
	compute := (serialOps + parallelOps/cores) / d.Spec.CoreRate
	compute *= 1 + d.Spec.DivergencePenalty*cv

	mem := float64(k.Bytes) / d.Spec.MemBandwidth
	mem *= 1 + d.Spec.RandomAccessPenalty*cv

	// Roofline: the kernel is bound by the slower of the two.
	t := compute
	if mem > t {
		t = mem
	}

	launches := k.Launches
	if launches < 1 {
		launches = 1
	}
	t += float64(launches) * d.Spec.LaunchLatency.Seconds()
	return time.Duration(t * float64(time.Second))
}

// TimeAll charges a sequence of kernels executed back to back.
func (d *Device) TimeAll(ks ...Kernel) time.Duration {
	var total time.Duration
	for _, k := range ks {
		total += d.Time(k)
	}
	return total
}

// Link models the interconnect (PCI Express in the paper's platform).
type Link struct {
	// Latency is charged once per transfer.
	Latency time.Duration
	// Bandwidth is in bytes/s.
	Bandwidth float64
}

// Transfer returns the simulated time to move n bytes across the link.
func (l *Link) Transfer(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return l.Latency + time.Duration(float64(n)/l.Bandwidth*float64(time.Second))
}

// Platform is a CPU plus one or more accelerators sharing one
// interconnect. The paper's CPU+GPU pair is the one-GPU case; with
// more GPUs the partition threshold becomes a vector (the paper's
// "other heterogeneous computing platforms" extension).
type Platform struct {
	CPU  *Device
	GPUs []*Device
	Link *Link
}

// Devices returns 1 + len(GPUs).
func (p *Platform) Devices() int { return 1 + len(p.GPUs) }

// Device returns device i in partition order: index 0 is the CPU,
// index i >= 1 is GPUs[i-1]. Partition share i of a core.Partition
// always refers to this ordering.
func (p *Platform) Device(i int) *Device {
	if i == 0 {
		return p.CPU
	}
	return p.GPUs[i-1]
}

// Signature returns a compact identity string for the platform's
// performance-relevant configuration. The threshold store records it
// with every entry: a threshold estimated on one platform does not
// silently transfer to another — a signature mismatch at lookup time
// is treated as drift (warm-start only, background re-estimation).
// Device order matters, because partition shares are positional.
func (p *Platform) Signature() string {
	dev := func(d *Device) string {
		s := d.Spec
		return fmt.Sprintf("%s:%dx%.4g:mb%.4g:dp%.3g:rp%.3g:ll%d",
			s.Name, s.Cores, s.CoreRate, s.MemBandwidth,
			s.DivergencePenalty, s.RandomAccessPenalty, s.LaunchLatency.Nanoseconds())
	}
	sig := fmt.Sprintf("cpu{%s}", dev(p.CPU))
	for _, g := range p.GPUs {
		sig += fmt.Sprintf("gpu{%s}", dev(g))
	}
	return sig + fmt.Sprintf("link{%.4g:%d}", p.Link.Bandwidth, p.Link.Latency.Nanoseconds())
}

// flops returns a device's peak regular throughput.
func flops(d *Device) float64 { return float64(d.Spec.Cores) * d.Spec.CoreRate }

// StaticShares returns the NaiveStatic partition vector: each device's
// share of the input is proportional to its peak FLOPS ("partitioning
// of the input graph between the CPU and the GPU based on the FLOPS
// ratio"), so StaticShares()[0] is NaiveStatic's CPU threshold. The
// last device absorbs the rounding remainder so the shares sum to 100
// exactly.
func (p *Platform) StaticShares() []float64 {
	n := p.Devices()
	var total float64
	for i := 0; i < n; i++ {
		total += flops(p.Device(i))
	}
	shares := make([]float64, n)
	var sum float64
	for i := 0; i < n-1; i++ {
		shares[i] = 100 * flops(p.Device(i)) / total
		sum += shares[i]
	}
	shares[n-1] = 100 - sum
	return shares
}

// Overlap returns the wall-clock time of two device phases running
// concurrently (the heterogeneous algorithms overlap CPU and GPU
// computation and wait for both).
func Overlap(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// DefaultMulti returns the Default platform's CPU and link with n
// accelerators: the first is the K40c-like device, each further one
// runs at 60% of the previous one's core count (an older or
// power-capped sibling card), which keeps the optimal share vector
// asymmetric and therefore worth searching for.
func DefaultMulti(n int) *Platform {
	p := Default()
	base := p.GPUs[0].Spec
	p.GPUs = make([]*Device, n)
	cores := base.Cores
	for i := range p.GPUs {
		spec := base
		spec.Cores = cores
		spec.Name = fmt.Sprintf("%s-%d", spec.Name, i)
		p.GPUs[i] = &Device{Spec: spec}
		cores = cores * 3 / 5
	}
	return p
}

// Default returns a platform calibrated to resemble the paper's
// testbed: a dual-socket 20-core Xeon E5-2650 against a Kepler K40c
// over PCIe 3.0. The numbers are deliberately round; only the ratios
// matter for the reproduction (the GPU has ~8x the regular throughput,
// matching the paper's "GPU ... gets the bigger of the two partitions
// which is 88% on average").
//
// Fixed per-launch and per-transfer latencies are set to zero: the
// Table II replicas are ~16x smaller than the originals (so that
// exhaustive 0..100 sweeps run in seconds) and the √n samples drawn
// from them are smaller still; the real K40c constants (~5µs launch,
// ~10µs PCIe latency) against such miniatures would bury every
// throughput effect the partitioning landscape is made of. The
// simulated platform is therefore throughput-only; LaunchLatency and
// Link.Latency remain functional for custom platforms and the
// ablation benchmarks.
func Default() *Platform {
	cpu := &Device{Spec: DeviceSpec{
		Name:                "xeon-e5-2650",
		Kind:                CPU,
		Cores:               20,
		CoreRate:            2.4e9, // ops/s per core, scalar+SIMD blend
		MemBandwidth:        80e9,
		LaunchLatency:       0,
		DivergencePenalty:   0.1,
		RandomAccessPenalty: 0.3,
	}}
	gpu := &Device{Spec: DeviceSpec{
		Name:                "tesla-k40c",
		Kind:                GPU,
		Cores:               2880,
		CoreRate:            130e6, // ops/s per scalar core on irregular workloads
		MemBandwidth:        230e9,
		LaunchLatency:       0,
		DivergencePenalty:   0.5,
		RandomAccessPenalty: 0.8,
	}}
	return &Platform{
		CPU:  cpu,
		GPUs: []*Device{gpu},
		Link: &Link{
			Latency:   0,
			Bandwidth: 8e9,
		},
	}
}
