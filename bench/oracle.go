package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/mmio"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// The answer checker and the quality oracle. Every answer the cluster
// returns is compared with what the estimation core computes in process
// for the same input, seed, searcher and repeats — bit for bit — and
// scored against the exhaustive optimum in simulated time.

// searcherFor mirrors hetserve's per-workload default searchers, which
// the benchmark pins in every request (see searcherParam).
func searcherFor(workload string) core.Searcher {
	switch workload {
	case "spmm":
		return core.RaceThenFine{Window: 4}
	case "scalefree":
		return core.GradientDescent{}
	default:
		return core.CoarseToFine{}
	}
}

// buildScalar builds the two-device workload over a matrix the way
// hetserve does for uploads and replicas.
func buildScalar(workload, name string, m *sparse.CSR) (core.Sampled, error) {
	p := hetsim.Default()
	switch workload {
	case "cc":
		g, err := graph.FromCSR(m)
		if err != nil {
			return nil, err
		}
		return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(p)), nil
	case "spmm":
		return hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(p))
	case "scalefree":
		return hetscale.NewWorkload(name, m, hetscale.NewAlgorithm(p))
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// parseBody parses an uploaded MatrixMarket body into a matrix.
func parseBody(body []byte) (*sparse.CSR, error) {
	coo, err := mmio.ReadLimited(bytes.NewReader(body), serve.DefaultMaxUpload)
	if err != nil {
		return nil, err
	}
	return sparse.FromCOO(coo)
}

// replicas builds and memoizes in-process workloads over the Table II
// replicas: cc runs on the replica's graph view, spmm and scalefree on
// its matrix view, exactly as hetserve builds them.
type replicas struct {
	mu     sync.Mutex
	scalar map[string]core.Sampled
	multi  map[string]core.SampledPartition
}

func newReplicas() *replicas {
	return &replicas{scalar: map[string]core.Sampled{}, multi: map[string]core.SampledPartition{}}
}

func (r *replicas) get(workload, dataset string) (core.Sampled, error) {
	id := workload + "|" + dataset
	r.mu.Lock()
	w, ok := r.scalar[id]
	r.mu.Unlock()
	if ok {
		return w, nil
	}
	d, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	if workload == "cc" {
		g, err := d.Graph()
		if err != nil {
			return nil, err
		}
		w = hetcc.NewWorkload(d.Name, g, hetcc.NewAlgorithm(hetsim.Default()))
	} else {
		m, err := d.Matrix()
		if err != nil {
			return nil, err
		}
		if w, err = buildScalar(workload, d.Name, m); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	r.scalar[id] = w
	r.mu.Unlock()
	return w, nil
}

// getMulti returns the N-device workload hetserve builds for
// ?devices=N without a configured inventory.
func (r *replicas) getMulti(workload, dataset string, devices int) (core.SampledPartition, error) {
	id := fmt.Sprintf("%s|%s|%d", workload, dataset, devices)
	r.mu.Lock()
	w, ok := r.multi[id]
	r.mu.Unlock()
	if ok {
		return w, nil
	}
	d, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	mp := hetsim.DefaultMulti(devices - 1)
	if workload == "cc" {
		g, err := d.Graph()
		if err != nil {
			return nil, err
		}
		w = hetcc.NewMultiWorkload(d.Name, g, hetcc.NewMultiAlgorithm(mp))
	} else {
		m, err := d.Matrix()
		if err != nil {
			return nil, err
		}
		if w, err = hetspmm.NewMultiWorkload(d.Name, m, hetspmm.NewMultiAlgorithm(mp)); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	r.multi[id] = w
	r.mu.Unlock()
	return w, nil
}

// dropMulti forgets the N-device workloads, which only the answer
// checks build.
func (r *replicas) dropMulti() {
	r.mu.Lock()
	r.multi = map[string]core.SampledPartition{}
	r.mu.Unlock()
}

// curve is the exhaustive unit-step sweep of one full input: the
// optimum and the simulated time at every grid threshold.
type curve struct {
	w    core.Workload
	best time.Duration
	at   map[int64]time.Duration

	mu  sync.Mutex
	off map[int64]time.Duration // memoized off-grid evaluations
}

func gridKey(t float64) int64 { return int64(math.Round(t * 1e6)) }

// exhaustive computes the curve of w with core.ExhaustiveBest.
func exhaustive(w core.Workload) (*curve, error) {
	res, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("exhaustive %s: %w", w.Name(), err)
	}
	c := &curve{w: w, best: res.BestTime, at: make(map[int64]time.Duration, len(res.Curve)), off: map[int64]time.Duration{}}
	for _, p := range res.Curve {
		c.at[gridKey(p.T)] = p.Time
	}
	return c, nil
}

// timeAt is the simulated run time at threshold t: read off the sweep
// for grid thresholds, evaluated for the rest.
func (c *curve) timeAt(t float64) (time.Duration, error) {
	k := gridKey(t)
	if d, ok := c.at[k]; ok {
		return d, nil
	}
	c.mu.Lock()
	d, ok := c.off[k]
	c.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := c.w.Evaluate(t)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.off[k] = d
	c.mu.Unlock()
	return d, nil
}

// gapPct is how much slower than the exhaustive optimum an answer at
// threshold t runs, in percent of the optimum.
func (c *curve) gapPct(t float64) (float64, error) {
	d, err := c.timeAt(t)
	if err != nil {
		return 0, err
	}
	if c.best <= 0 {
		return 0, nil
	}
	return 100 * float64(d-c.best) / float64(c.best), nil
}

// oracle holds the exhaustive curves of the scalar replica workloads.
type oracle struct {
	curves map[string]*curve // key: workload|dataset
}

// newOracle sweeps every scalar (workload, replica) pair of the
// dataset workloads, spread over GOMAXPROCS goroutines.
func newOracle(reps *replicas) (*oracle, error) {
	type job struct{ workload, dataset string }
	var jobs []job
	for _, d := range datasets.All() {
		jobs = append(jobs, job{"cc", d.Name}, job{"spmm", d.Name})
	}
	for _, d := range datasets.ScaleFreeSet() {
		jobs = append(jobs, job{"scalefree", d.Name})
	}
	o := &oracle{curves: make(map[string]*curve, len(jobs))}
	var mu sync.Mutex
	err := forEach(len(jobs), func(i int) error {
		w, err := reps.get(jobs[i].workload, jobs[i].dataset)
		if err != nil {
			return err
		}
		c, err := exhaustive(w)
		if err != nil {
			return err
		}
		mu.Lock()
		o.curves[jobs[i].workload+"|"+jobs[i].dataset] = c
		mu.Unlock()
		return nil
	})
	return o, err
}

func (o *oracle) curve(workload, dataset string) *curve {
	return o.curves[workload+"|"+dataset]
}

// forEach runs fn(0..n-1) on GOMAXPROCS goroutines and returns the
// first error.
func forEach(n int, fn func(i int) error) error {
	return forEachN(n, runtime.GOMAXPROCS(0), fn)
}

// forEachN runs fn(0..n-1) on at most workers goroutines and returns
// the first error; after an error no new calls start.
func forEachN(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// referenceScalar runs the in-process reference estimate for a scalar
// answer.
func referenceScalar(w core.Sampled, workload string, seed uint64) (*core.Estimate, error) {
	return core.EstimateThreshold(context.Background(), w, core.Config{
		Searcher: searcherFor(workload), Seed: seed, Repeats: defaultRepeats, Parallelism: 1,
	})
}

// referencePartition runs the in-process reference estimate for a
// devices=N answer.
func referencePartition(w core.SampledPartition, workload string, seed uint64) (*core.PartitionEstimate, error) {
	return core.EstimatePartition(context.Background(), w, core.Config{
		Searcher: searcherFor(workload), Seed: seed, Repeats: defaultRepeats, Parallelism: 1,
	})
}

// checkScalar compares a served scalar answer with its reference: the
// threshold and the evaluation count must be bit-identical.
func checkScalar(got *answer, ref *core.Estimate) error {
	if got.threshold != ref.Threshold || got.evals != ref.Evals {
		return fmt.Errorf("answer %d (%s, seed %d): served threshold %v (%d evals), reference %v (%d evals)",
			got.seq, got.workload, got.seed, got.threshold, got.evals, ref.Threshold, ref.Evals)
	}
	return nil
}

// checkPartition compares a served partition answer with its reference.
func checkPartition(got *answer, ref *core.PartitionEstimate) error {
	same := len(got.partition) == len(ref.Partition) && got.evals == ref.Evals
	for i := 0; same && i < len(got.partition); i++ {
		same = got.partition[i] == ref.Partition[i]
	}
	if !same {
		return fmt.Errorf("answer %d (%s, seed %d): served partition %v (%d evals), reference %v (%d evals)",
			got.seq, got.workload, got.seed, got.partition, got.evals, ref.Partition, ref.Evals)
	}
	return nil
}

// checkRunTime verifies that the simulated run time an answer reports
// is the full input's time at the answered threshold.
func checkRunTime(got *answer, c *curve) error {
	d, err := c.timeAt(got.threshold)
	if err != nil {
		return err
	}
	if int64(d) != got.runNS {
		return fmt.Errorf("answer %d (%s): served run time %dns at threshold %v, full input runs %dns",
			got.seq, got.workload, got.runNS, got.threshold, int64(d))
	}
	return nil
}
