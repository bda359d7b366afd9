package hetsim

import (
	"fmt"
	"sort"
)

// Preset returns a named platform configuration. Besides the default
// K40c-class pairing, presets model a weaker entry-level accelerator
// and a newer HBM-class one, so experiments can show that the sampling
// framework adapts to the *platform* as well as to the input: the same
// dataset has different optimal thresholds on different hardware, and
// the estimate follows.
func Preset(name string) (*Platform, error) {
	switch name {
	case "k40c":
		return Default(), nil
	case "entry-gpu":
		// A GTX-750-class card: fewer cores, less bandwidth, same
		// PCIe. The CPU deserves a much larger share.
		p := Default()
		p.GPUs[0].Spec.Name = "entry-gpu"
		p.GPUs[0].Spec.Cores = 640
		p.GPUs[0].Spec.MemBandwidth = 80e9
		return p, nil
	case "hbm-gpu":
		// A P100-class card: more cores, HBM bandwidth, NVLink-class
		// interconnect. The CPU share shrinks.
		p := Default()
		p.GPUs[0].Spec.Name = "hbm-gpu"
		p.GPUs[0].Spec.Cores = 3584
		p.GPUs[0].Spec.CoreRate = 300e6
		p.GPUs[0].Spec.MemBandwidth = 700e9
		p.Link.Bandwidth = 40e9
		return p, nil
	case "big-cpu":
		// A dual-socket 64-thread server with a mid-range GPU.
		p := Default()
		p.CPU.Spec.Name = "big-cpu"
		p.CPU.Spec.Cores = 64
		p.CPU.Spec.MemBandwidth = 200e9
		return p, nil
	}
	return nil, fmt.Errorf("hetsim: unknown preset %q (have %v)", name, PresetNames())
}

// PresetNames lists the available platform presets.
func PresetNames() []string {
	names := []string{"k40c", "entry-gpu", "hbm-gpu", "big-cpu"}
	sort.Strings(names)
	return names
}
