package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/sparse"
)

// Workload names accepted by the /estimate endpoint.
const (
	WorkloadCC        = "cc"
	WorkloadSpMM      = "spmm"
	WorkloadScaleFree = "scalefree"
)

// MaxEstimateDevices caps the ?devices= parameter: partition-vector
// estimation cost grows with the simplex dimension, and the default
// device inventories stop being meaningful beyond a handful of GPUs.
const MaxEstimateDevices = 8

// buildFromDataset constructs the named workload over a Table II
// replica.
func buildFromDataset(platform *hetsim.Platform, workload, dataset string) (core.Sampled, error) {
	d, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	switch workload {
	case WorkloadCC:
		g, err := d.Graph()
		if err != nil {
			return nil, err
		}
		return hetcc.NewWorkload(d.Name, g, hetcc.NewAlgorithm(platform)), nil
	case WorkloadSpMM:
		m, err := d.Pattern() // no served cost model reads a value
		if err != nil {
			return nil, err
		}
		return hetspmm.NewWorkload(d.Name, m, hetspmm.NewAlgorithm(platform))
	case WorkloadScaleFree:
		m, err := d.Pattern() // no served cost model reads a value
		if err != nil {
			return nil, err
		}
		return hetscale.NewWorkload(d.Name, m, hetscale.NewAlgorithm(platform))
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)",
			workload, WorkloadCC, WorkloadSpMM, WorkloadScaleFree)
	}
}

// buildFromMatrix constructs the named workload over an uploaded
// matrix. name is only used for reporting.
func buildFromMatrix(platform *hetsim.Platform, workload, name string, m *sparse.CSR) (core.Sampled, error) {
	switch workload {
	case WorkloadCC:
		g, err := graph.FromCSR(m)
		if err != nil {
			return nil, err
		}
		return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(platform)), nil
	case WorkloadSpMM:
		return hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(platform))
	case WorkloadScaleFree:
		return hetscale.NewWorkload(name, m, hetscale.NewAlgorithm(platform))
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)",
			workload, WorkloadCC, WorkloadSpMM, WorkloadScaleFree)
	}
}

// buildMultiFromDataset constructs the N-device partition workload
// over a Table II replica. Only cc and spmm generalize to partition
// vectors; the scale-free study is inherently two-device.
func buildMultiFromDataset(mp *hetsim.MultiPlatform, workload, dataset string) (core.SampledPartition, error) {
	d, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	switch workload {
	case WorkloadCC:
		g, err := d.Graph()
		if err != nil {
			return nil, err
		}
		return hetcc.NewMultiWorkload(d.Name, g, hetcc.NewMultiAlgorithm(mp)), nil
	case WorkloadSpMM:
		m, err := d.Pattern() // no served cost model reads a value
		if err != nil {
			return nil, err
		}
		return hetspmm.NewMultiWorkload(d.Name, m, hetspmm.NewMultiAlgorithm(mp))
	default:
		return nil, fmt.Errorf("workload %q does not support partition vectors (want %s or %s)",
			workload, WorkloadCC, WorkloadSpMM)
	}
}

// buildMultiFromMatrix constructs the N-device partition workload over
// an uploaded matrix.
func buildMultiFromMatrix(mp *hetsim.MultiPlatform, workload, name string, m *sparse.CSR) (core.SampledPartition, error) {
	switch workload {
	case WorkloadCC:
		g, err := graph.FromCSR(m)
		if err != nil {
			return nil, err
		}
		return hetcc.NewMultiWorkload(name, g, hetcc.NewMultiAlgorithm(mp)), nil
	case WorkloadSpMM:
		return hetspmm.NewMultiWorkload(name, m, hetspmm.NewMultiAlgorithm(mp))
	default:
		return nil, fmt.Errorf("workload %q does not support partition vectors (want %s or %s)",
			workload, WorkloadCC, WorkloadSpMM)
	}
}

// searcherFor resolves the Identify strategy. An empty name picks the
// per-workload default the CLI and the experiments use: race-then-fine
// for SpMM (the paper's Section IV-A coarse estimation), gradient
// descent for the scale-free study, coarse-to-fine otherwise.
func searcherFor(workload, name string) (core.Searcher, error) {
	switch name {
	case "":
		switch workload {
		case WorkloadSpMM:
			return core.RaceThenFine{Window: 4}, nil
		case WorkloadScaleFree:
			return core.GradientDescent{}, nil
		default:
			return core.CoarseToFine{}, nil
		}
	case "exhaustive":
		return core.Exhaustive{}, nil
	case "coarse-to-fine":
		return core.CoarseToFine{}, nil
	case "gradient":
		return core.GradientDescent{}, nil
	case "race":
		return core.RaceThenFine{Window: 4}, nil
	default:
		return nil, fmt.Errorf("unknown searcher %q (want exhaustive, coarse-to-fine, gradient or race)", name)
	}
}
