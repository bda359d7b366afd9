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
	// partition, and picks the search path. platform is never nil: the
	// device pair for scalar and two-device requests, the inventory for
	// N >= 3.
	devices  int
	platform *hetsim.Platform
	// input is the reported name; key the input identity the result
	// cache, the store and hetgate's ring all key by (batch.InputKey).
	input, key string
	// body is an uploaded MatrixMarket matrix; nil names a dataset.
	body     []byte
	cacheKey string
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
	req.platform = s.platform
	if req.devices > 0 {
		if req.workload == WorkloadScaleFree {
			return badRequest("workload %q does not support partition vectors (want %s or %s)",
				req.workload, WorkloadCC, WorkloadSpMM)
		}
		// devices == 2 runs on the pair, whose workload is a
		// two-device partition workload.
		if req.devices >= 3 {
			if req.platform, err = s.multiPlatform(req.devices); err != nil {
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
// partition request, 3 <= N <= MaxEstimateDevices. A configured
// inventory wins — then its device count is the only one the server
// answers for — otherwise the default CPU + (N-1) GPU cascade that New
// built.
func (s *Server) multiPlatform(devices int) (*hetsim.Platform, error) {
	if mp := s.cfg.MultiPlatform; mp != nil {
		if n := mp.Devices(); n != devices {
			return nil, badRequest("devices=%d does not match the configured inventory (%d devices)", devices, n)
		}
		return mp, nil
	}
	return s.cascades[devices], nil
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

// newWorkload constructs the named workload over src on platform p.
// cc and spmm build one workload type at every device count
// (core.Sampled and core.SampledPartition); the scale-free study is
// inherently two-device, and resolve sends it the pair only. No served
// cost model reads a matrix value, so patterns suffice.
func newWorkload(p *hetsim.Platform, workload, name string, src source) (any, error) {
	switch workload {
	case WorkloadCC:
		g, err := src.Graph()
		if err != nil {
			return nil, err
		}
		return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(p)), nil
	case WorkloadSpMM:
		m, err := src.Pattern()
		if err != nil {
			return nil, err
		}
		return hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(p))
	case WorkloadScaleFree:
		m, err := src.Pattern()
		if err != nil {
			return nil, err
		}
		return hetscale.NewWorkload(name, m, hetscale.NewAlgorithm(p))
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
