package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/batch"
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

// Request defaults shared by /estimate and /estimate-batch items.
const (
	defaultSeed    = 42
	defaultRepeats = 3
)

// request is one resolved estimation request — a single /estimate call
// or one batch item — with the daemon defaults applied and everything
// the miss path needs derived once.
type request struct {
	workload string
	searcher core.Searcher
	seed     uint64
	repeats  int
	// devices is 0 for the scalar threshold, N >= 2 for an N-device
	// partition, and picks the search path; mp is the inventory for
	// N >= 3 (two devices run on the pair platform's workload).
	devices int
	mp      *hetsim.MultiPlatform
	// input is the reported name; key the input identity the result
	// cache, the store and hetgate's ring all key by (batch.InputKey).
	input, key string
	// body is an uploaded MatrixMarket matrix; nil names a dataset.
	body     []byte
	cacheKey string
	// features is the client's advisory structural-feature hint in
	// store.Features wire form; it only steers the store lookup.
	features string
	// item names the batch item; empty on single requests.
	item string
}

// resolve completes a request from its raw parameters — the searcher
// name and, when it carries no upload, the dataset name: it applies the
// workload default and derives the searcher, the device inventory, the
// input identity and the result-cache key. Single requests and batch
// items share it, so equal parameters always map to one cache entry.
func (s *Server) resolve(req *request, searcher, dataset string) error {
	if req.workload == "" {
		req.workload = WorkloadCC
	}
	var err error
	if req.searcher, err = searcherFor(req.workload, searcher); err != nil {
		return badRequest("%v", err)
	}
	if req.devices > 0 {
		if req.workload == WorkloadScaleFree {
			return badRequest("workload %q does not support partition vectors (want %s or %s)",
				req.workload, WorkloadCC, WorkloadSpMM)
		}
		// devices == 2 runs the pair platform's workload, which is a
		// two-device partition workload, so it needs no multi-platform
		// inventory.
		if req.devices >= 3 {
			if req.mp, err = s.multiPlatform(req.devices); err != nil {
				return err
			}
		}
	}
	switch {
	case req.body != nil:
		req.key = batch.InputKey("", req.body)
		req.input = req.key
	case dataset == "":
		return badRequest("missing ?dataset= (or POST a MatrixMarket body)")
	default:
		if _, err := datasets.ByName(dataset); err != nil {
			return &httpError{code: http.StatusNotFound, err: err}
		}
		req.key, req.input = batch.InputKey(dataset, nil), dataset
	}
	req.cacheKey = strings.Join([]string{
		req.key, req.workload, req.searcher.Name(),
		strconv.FormatUint(req.seed, 10), strconv.Itoa(req.repeats),
		"d" + strconv.Itoa(req.devices),
	}, "|")
	return nil
}

// cost is the admission cost of req's cold search.
func (req *request) cost() int64 { return partitionSearchCost(req.searcher, req.repeats, req.devices) }

// multiPlatform resolves the device inventory for an N-device
// partition request. A configured inventory wins — then its device
// count is the only one the server answers for — otherwise the default
// CPU + (N-1) GPU cascade is built on demand (construction is a few
// struct literals; the build cache keys workloads by the inventory's
// signature, so equal inventories share builds).
func (s *Server) multiPlatform(devices int) (*hetsim.MultiPlatform, error) {
	if s.cfg.MultiPlatform != nil {
		if n := s.cfg.MultiPlatform.Devices(); n != devices {
			return nil, badRequest("devices=%d does not match the configured inventory (%d devices)", devices, n)
		}
		return s.cfg.MultiPlatform, nil
	}
	return hetsim.DefaultMulti(devices - 1), nil
}

// source is a workload's input, as a graph (cc) or a sparsity pattern
// (spmm, scalefree). datasets.Dataset is one; upload is the other.
type source interface {
	Graph() (*graph.Graph, error)
	Pattern() (*sparse.CSR, error)
}

// upload is a parsed MatrixMarket upload as a workload source.
type upload struct{ m *sparse.CSR }

func (u upload) Graph() (*graph.Graph, error)  { return graph.FromCSR(u.m) }
func (u upload) Pattern() (*sparse.CSR, error) { return u.m, nil }

// newWorkload constructs the named workload over src on the platform
// pair, or with an inventory on its N devices. cc and spmm build one
// workload type at every device count (core.Sampled and
// core.SampledPartition); the scale-free study is inherently
// two-device. No served cost model reads a matrix value, so patterns
// suffice.
func newWorkload(platform *hetsim.Platform, mp *hetsim.MultiPlatform, workload, name string, src source) (any, error) {
	switch {
	case workload == WorkloadCC:
		g, err := src.Graph()
		if err != nil {
			return nil, err
		}
		if mp != nil {
			return hetcc.NewMultiWorkload(name, g, hetcc.NewMultiAlgorithm(mp)), nil
		}
		return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(platform)), nil
	case workload == WorkloadSpMM:
		m, err := src.Pattern()
		if err != nil {
			return nil, err
		}
		if mp != nil {
			return hetspmm.NewMultiWorkload(name, m, hetspmm.NewMultiAlgorithm(mp))
		}
		return hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(platform))
	case workload == WorkloadScaleFree && mp == nil:
		m, err := src.Pattern()
		if err != nil {
			return nil, err
		}
		return hetscale.NewWorkload(name, m, hetscale.NewAlgorithm(platform))
	case mp != nil:
		return nil, fmt.Errorf("workload %q does not support partition vectors (want %s or %s)",
			workload, WorkloadCC, WorkloadSpMM)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)",
			workload, WorkloadCC, WorkloadSpMM, WorkloadScaleFree)
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
