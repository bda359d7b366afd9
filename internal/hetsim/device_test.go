package hetsim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func testCPU(t *testing.T) *Device {
	t.Helper()
	return &Device{Spec: DeviceSpec{
		Name: "cpu", Kind: CPU, Cores: 4, CoreRate: 1e9,
		MemBandwidth: 10e9, LaunchLatency: time.Microsecond,
		DivergencePenalty: 0.1, RandomAccessPenalty: 0.5,
	}}
}

// checkSpec fails the test unless s has positive cores, core rate and
// bandwidth and non-negative penalties.
func checkSpec(t *testing.T, s DeviceSpec) {
	t.Helper()
	if s.Cores <= 0 || s.CoreRate <= 0 || s.MemBandwidth <= 0 || s.DivergencePenalty < 0 || s.RandomAccessPenalty < 0 {
		t.Fatalf("device %q has an invalid spec: %+v", s.Name, s)
	}
}

func TestTimeZeroWork(t *testing.T) {
	d := testCPU(t)
	if got := d.Time(Kernel{Name: "empty"}); got != 0 {
		t.Errorf("zero-work kernel took %v", got)
	}
}

func TestTimeSequentialComputeBound(t *testing.T) {
	d := testCPU(t)
	// 1e9 sequential ops at 1e9 ops/s = 1s (+1µs launch).
	got := d.Time(Kernel{Ops: 1e9, ParallelFraction: 0, Launches: 1})
	want := time.Second + time.Microsecond
	if diff := got - want; diff > time.Millisecond || diff < -time.Millisecond {
		t.Errorf("sequential time = %v, want ~%v", got, want)
	}
}

func TestTimeAmdahlScaling(t *testing.T) {
	d := testCPU(t)
	seq := d.Time(Kernel{Ops: 4e9, ParallelFraction: 0})
	par := d.Time(Kernel{Ops: 4e9, ParallelFraction: 1})
	// Perfectly parallel on 4 cores: 4x faster.
	ratio := float64(seq) / float64(par)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("parallel speedup = %v, want ~4", ratio)
	}
	half := d.Time(Kernel{Ops: 4e9, ParallelFraction: 0.5})
	if half <= par || half >= seq {
		t.Errorf("half-parallel time %v not between %v and %v", half, par, seq)
	}
}

func TestTimeMemoryBound(t *testing.T) {
	d := testCPU(t)
	// Tiny compute, heavy traffic: 20e9 bytes at 10e9 B/s = 2s.
	got := d.Time(Kernel{Ops: 1, Bytes: 20e9})
	if got < 1900*time.Millisecond || got > 2100*time.Millisecond {
		t.Errorf("memory-bound time = %v, want ~2s", got)
	}
}

func TestTimeIrregularityPenalty(t *testing.T) {
	d := testCPU(t)
	regular := d.Time(Kernel{Ops: 1e9, ParallelFraction: 1, IrregularityCV: 0})
	irregular := d.Time(Kernel{Ops: 1e9, ParallelFraction: 1, IrregularityCV: 2})
	// DivergencePenalty 0.1, CV 2 → 1.2x.
	ratio := float64(irregular) / float64(regular)
	if ratio < 1.15 || ratio > 1.25 {
		t.Errorf("irregularity slowdown = %v, want ~1.2", ratio)
	}
}

func TestTimeClampsInputs(t *testing.T) {
	d := testCPU(t)
	a := d.Time(Kernel{Ops: 1e6, ParallelFraction: 5, IrregularityCV: -3})
	b := d.Time(Kernel{Ops: 1e6, ParallelFraction: 1, IrregularityCV: 0})
	if a != b {
		t.Errorf("clamping failed: %v vs %v", a, b)
	}
}

func TestTimeLaunchOverhead(t *testing.T) {
	d := testCPU(t)
	one := d.Time(Kernel{Ops: 1000, Launches: 1})
	many := d.Time(Kernel{Ops: 1000, Launches: 101})
	if diff := many - one; diff < 99*time.Microsecond || diff > 101*time.Microsecond {
		t.Errorf("100 extra launches cost %v, want ~100µs", diff)
	}
	// Launches < 1 is treated as 1.
	if got := d.Time(Kernel{Ops: 1000, Launches: 0}); got != one {
		t.Errorf("Launches=0 time %v != Launches=1 time %v", got, one)
	}
}

func TestTimeAll(t *testing.T) {
	d := testCPU(t)
	k1 := Kernel{Ops: 1e6, Launches: 1}
	k2 := Kernel{Ops: 2e6, Launches: 1}
	if d.TimeAll(k1, k2) != d.Time(k1)+d.Time(k2) {
		t.Error("TimeAll is not additive")
	}
}

func TestLinkTransfer(t *testing.T) {
	l := &Link{Latency: 10 * time.Microsecond, Bandwidth: 1e9}
	if got := l.Transfer(0); got != 0 {
		t.Errorf("zero transfer took %v", got)
	}
	if got := l.Transfer(-5); got != 0 {
		t.Errorf("negative transfer took %v", got)
	}
	got := l.Transfer(1e9)
	want := time.Second + 10*time.Microsecond
	if diff := got - want; diff > time.Millisecond || diff < -time.Millisecond {
		t.Errorf("transfer = %v, want ~%v", got, want)
	}
}

func TestOverlap(t *testing.T) {
	if Overlap(time.Second, 2*time.Second) != 2*time.Second {
		t.Error("Overlap should return max")
	}
	if Overlap(3*time.Second, time.Second) != 3*time.Second {
		t.Error("Overlap should return max")
	}
}

func TestDefaultPlatform(t *testing.T) {
	p := Default()
	checkSpec(t, p.CPU.Spec)
	checkSpec(t, p.GPUs[0].Spec)
	if p.Devices() != 2 {
		t.Fatalf("devices = %d, want the CPU+GPU pair", p.Devices())
	}
	// The paper's NaiveStatic gives the GPU ~88% (a FLOPS ratio of
	// ~7-8).
	if share := p.StaticShares()[0]; share < 8 || share > 17 {
		t.Errorf("static CPU share = %v%%, want ~12%%", share)
	}
	gpu := p.GPUs[0]
	// On perfectly regular parallel work the GPU must win big.
	k := Kernel{Ops: 1e10, ParallelFraction: 1}
	if gpu.Time(k) >= p.CPU.Time(k) {
		t.Error("GPU not faster than CPU on regular parallel work")
	}
	// On sequential work the CPU must win big.
	ks := Kernel{Ops: 1e7, ParallelFraction: 0}
	if p.CPU.Time(ks) >= gpu.Time(ks) {
		t.Error("CPU not faster than GPU on sequential work")
	}
	// On highly irregular work the GPU's advantage must shrink.
	reg := float64(p.CPU.Time(k)) / float64(gpu.Time(k))
	ki := Kernel{Ops: 1e10, ParallelFraction: 1, IrregularityCV: 3}
	irr := float64(p.CPU.Time(ki)) / float64(gpu.Time(ki))
	if irr >= reg {
		t.Errorf("irregularity did not shrink GPU advantage: %v vs %v", irr, reg)
	}
}

func TestTraceAccounting(t *testing.T) {
	var tr Trace
	tr.Add(PhasePartition, "cpu", time.Millisecond)
	tr.Add(PhaseCompute, "cpu", 2*time.Millisecond)
	tr.Add(PhaseCompute, "gpu", 7*time.Millisecond)
	want := []TraceEntry{
		{PhasePartition, "cpu", time.Millisecond},
		{PhaseCompute, "cpu", 2 * time.Millisecond},
		{PhaseCompute, "gpu", 7 * time.Millisecond},
	}
	if !reflect.DeepEqual(tr.Entries, want) {
		t.Errorf("entries = %v, want %v", tr.Entries, want)
	}
	s := tr.String()
	if !strings.Contains(s, "compute/gpu") || !strings.Contains(s, "total") || !strings.Contains(s, "10ms") {
		t.Errorf("trace string missing content:\n%s", s)
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) != 4 {
		t.Fatalf("presets = %v", names)
	}
	shares := map[string]float64{}
	for _, n := range names {
		p, err := Preset(n)
		if err != nil {
			t.Fatal(err)
		}
		checkSpec(t, p.CPU.Spec)
		checkSpec(t, p.GPUs[0].Spec)
		shares[n] = p.StaticShares()[0]
	}
	// Platform ordering: the entry GPU leaves the CPU the largest
	// share; the HBM GPU the smallest.
	if !(shares["entry-gpu"] > shares["k40c"] && shares["k40c"] > shares["hbm-gpu"]) {
		t.Errorf("share ordering wrong: %v", shares)
	}
	if shares["big-cpu"] <= shares["k40c"] {
		t.Errorf("big-cpu share %v not above k40c %v", shares["big-cpu"], shares["k40c"])
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestDefaultMulti(t *testing.T) {
	p := DefaultMulti(3)
	if p.Devices() != 4 {
		t.Fatalf("devices = %d", p.Devices())
	}
	for i := 1; i < len(p.GPUs); i++ {
		if p.GPUs[i].Spec.Cores >= p.GPUs[i-1].Spec.Cores {
			t.Errorf("GPU %d not weaker than GPU %d", i, i-1)
		}
		checkSpec(t, p.GPUs[i].Spec)
	}
	if DefaultMulti(0).Devices() != 1 {
		t.Error("zero-GPU multi platform wrong")
	}
}

func TestStaticSharesSumTo100(t *testing.T) {
	for n := 1; n <= 5; n++ {
		mp := DefaultMulti(n)
		shares := mp.StaticShares()
		if len(shares) != mp.Devices() {
			t.Fatalf("n=%d: %d shares for %d devices", n, len(shares), mp.Devices())
		}
		if err := core.Partition(shares).Validate(); err != nil {
			t.Errorf("n=%d: StaticShares() = %v: %v", n, shares, err)
		}
		// Faster devices get larger shares: GPU 0 has the most cores.
		if shares[1] <= shares[0] {
			t.Errorf("n=%d: GPU0 share %v not above CPU share %v", n, shares[1], shares[0])
		}
	}
}

func TestMultiPlatformSignature(t *testing.T) {
	a, b := DefaultMulti(2), DefaultMulti(2)
	if a.Signature() != b.Signature() {
		t.Error("equal inventories have different signatures")
	}
	if a.Signature() == DefaultMulti(3).Signature() {
		t.Error("different device counts share a signature")
	}
	if a.Signature() == "" {
		t.Error("empty signature")
	}
}

func TestMultiPlatformDevice(t *testing.T) {
	mp := DefaultMulti(2)
	if mp.Device(0) != mp.CPU {
		t.Error("Device(0) is not the CPU")
	}
	for i, g := range mp.GPUs {
		if mp.Device(i+1) != g {
			t.Errorf("Device(%d) is not GPUs[%d]", i+1, i)
		}
	}
}

// TestPlatformSignaturesPinned holds the platform signatures to their
// literal strings. The threshold store writes the signature into every
// entry and matches only entries of its own signature, so a changed
// string would silently hide every stored entry from lookups.
func TestPlatformSignaturesPinned(t *testing.T) {
	const (
		cpu  = "cpu{xeon-e5-2650:20x2.4e+09:mb8e+10:dp0.1:rp0.3:ll0}"
		k40c = "gpu{tesla-k40c:2880x1.3e+08:mb2.3e+11:dp0.5:rp0.8:ll0}"
		link = "link{8e+09:0}"
	)
	for _, tc := range []struct {
		name string
		p    *Platform
		want string
	}{
		{"Default", Default(), cpu + k40c + link},
		{"DefaultMulti(2)", DefaultMulti(2), cpu +
			"gpu{tesla-k40c-0:2880x1.3e+08:mb2.3e+11:dp0.5:rp0.8:ll0}" +
			"gpu{tesla-k40c-1:1728x1.3e+08:mb2.3e+11:dp0.5:rp0.8:ll0}" + link},
		{"big-cpu", mustPreset(t, "big-cpu"), "cpu{big-cpu:64x2.4e+09:mb2e+11:dp0.1:rp0.3:ll0}" + k40c + link},
		{"entry-gpu", mustPreset(t, "entry-gpu"), cpu + "gpu{entry-gpu:640x1.3e+08:mb8e+10:dp0.5:rp0.8:ll0}" + link},
		{"hbm-gpu", mustPreset(t, "hbm-gpu"), cpu + "gpu{hbm-gpu:3584x3e+08:mb7e+11:dp0.5:rp0.8:ll0}link{4e+10:0}"},
	} {
		if got := tc.p.Signature(); got != tc.want {
			t.Errorf("%s signature:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestStaticSharesPinned holds NaiveStatic's CPU share on every
// preset to its exact bits: the experiments and hetserve's degraded
// answers report it.
func TestStaticSharesPinned(t *testing.T) {
	for name, want := range map[string]float64{
		"big-cpu":   29.09090909090909,
		"entry-gpu": 36.58536585365854,
		"hbm-gpu":   4.273504273504273,
		"k40c":      11.363636363636363,
	} {
		got := mustPreset(t, name).StaticShares()
		if got[0] != want || got[1] != 100-want {
			t.Errorf("%s: shares %v, want [%v %v]", name, got, want, 100-want)
		}
	}
}

func mustPreset(t *testing.T, name string) *Platform {
	t.Helper()
	p, err := Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
