// Command hetpart estimates a work-partition threshold for one dataset
// and workload using the sampling framework, and compares it against
// the exhaustive optimum and the naive baselines.
//
// Usage:
//
//	hetpart -workload cc -dataset netherlands_osm
//	hetpart -workload spmm -dataset cant -seed 7
//	hetpart -workload scalefree -dataset web-BerkStan
//	hetpart -workload cc -mtx graph.mtx       # bring your own matrix
//	hetpart -workload cc -dataset cant -devices 3   # N-device partition vector
//
// With -devices N (N ≥ 3; cc and spmm only) the scalar threshold
// generalizes to an N-share partition vector over a CPU + (N-1) GPU
// cascade: the estimate is compared against the NaiveStatic FLOPS-ratio
// vector and (unless -skip-exhaustive) the exhaustive simplex optimum.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/mmio"
	"repro/internal/sparse"
)

func main() {
	var (
		workload = flag.String("workload", "cc", "cc | spmm | scalefree")
		dataset  = flag.String("dataset", "netherlands_osm", "Table II dataset name")
		mtxPath  = flag.String("mtx", "", "MatrixMarket file to use instead of a synthetic dataset")
		seed     = flag.Uint64("seed", 42, "sampling seed")
		repeats  = flag.Int("repeats", 3, "independent samples (median)")
		par      = flag.Int("parallelism", 0, "concurrent threshold evaluations (0 = GOMAXPROCS, 1 = sequential; results identical)")
		skipExh  = flag.Bool("skip-exhaustive", false, "skip the exhaustive comparison")
		devices  = flag.Int("devices", 0, "estimate an N-device partition vector instead of the scalar threshold (0 = scalar, N ≥ 3 = CPU + N-1 GPUs)")
	)
	flag.Parse()

	var err error
	if *devices > 0 {
		err = runPartition(*workload, *dataset, *mtxPath, *devices, *seed, *repeats, *par, *skipExh)
	} else {
		err = run(*workload, *dataset, *mtxPath, *seed, *repeats, *par, *skipExh)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetpart:", err)
		os.Exit(1)
	}
}

func loadMatrix(dataset, mtxPath string) (*sparse.CSR, string, error) {
	if mtxPath != "" {
		f, err := os.Open(mtxPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		coo, err := mmio.ReadStructure(f, 0) // the estimates read no value
		if err != nil {
			return nil, "", err
		}
		m, err := sparse.FromCOO(coo)
		if err != nil {
			return nil, "", err
		}
		return m, mtxPath, nil
	}
	d, err := datasets.ByName(dataset)
	if err != nil {
		return nil, "", err
	}
	m, err := d.Pattern()
	return m, d.Name, err
}

// loadGraph is loadMatrix for the cc workload: a dataset's graph or
// the -mtx file's.
func loadGraph(dataset, mtxPath string) (*graph.Graph, string, error) {
	if mtxPath != "" {
		m, name, err := loadMatrix(dataset, mtxPath)
		if err != nil {
			return nil, "", err
		}
		g, err := graph.FromCSR(m)
		return g, name, err
	}
	d, err := datasets.ByName(dataset)
	if err != nil {
		return nil, "", err
	}
	g, err := d.Graph()
	return g, d.Name, err
}

// load builds the named workload over the dataset or the -mtx file on
// platform p and picks the searcher its estimates use (nil: the
// pipeline default). cc and spmm are also partition workloads
// (core.SampledPartition) on any number of devices; scalefree is a
// two-device study.
func load(workload, dataset, mtxPath string, p *hetsim.Platform) (core.Sampled, core.Searcher, error) {
	switch workload {
	case "cc":
		g, name, err := loadGraph(dataset, mtxPath)
		if err != nil {
			return nil, nil, err
		}
		return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(p)), nil, nil
	case "spmm":
		m, name, err := loadMatrix(dataset, mtxPath)
		if err != nil {
			return nil, nil, err
		}
		w, err := hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(p))
		if err != nil {
			return nil, nil, err
		}
		return w, core.RaceThenFine{Window: 4}, nil
	case "scalefree":
		m, name, err := loadMatrix(dataset, mtxPath)
		if err != nil {
			return nil, nil, err
		}
		w, err := hetscale.NewWorkload(name, m, hetscale.NewAlgorithm(p))
		if err != nil {
			return nil, nil, err
		}
		return w, core.GradientDescent{}, nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want cc, spmm or scalefree)", workload)
	}
}

// runPartition is the -devices path: N-device partition-vector
// estimation over the simplex, compared against the NaiveStatic
// FLOPS-ratio vector and the exhaustive simplex optimum.
func runPartition(workload, dataset, mtxPath string, devices int, seed uint64, repeats, parallelism int, skipExh bool) error {
	if devices < 3 || devices > 8 {
		return fmt.Errorf("-devices %d out of range (want 3..8; use the scalar path for two devices)", devices)
	}
	platform := hetsim.DefaultMulti(devices - 1)
	sw, searcher, err := load(workload, dataset, mtxPath, platform)
	if err != nil {
		return err
	}
	w, ok := sw.(core.SampledPartition)
	if !ok {
		return fmt.Errorf("workload %q does not support partition vectors (want cc or spmm)", workload)
	}
	cfg := core.Config{Searcher: searcher, Seed: seed, Repeats: repeats, Parallelism: parallelism}

	start := time.Now()
	est, err := core.EstimatePartition(context.Background(), w, cfg)
	if err != nil {
		return err
	}
	wallEst := time.Since(start)
	estTime, err := w.EvaluatePartition(est.Partition)
	if err != nil {
		return err
	}
	static := core.Partition(platform.StaticShares())
	staticTime, err := w.EvaluatePartition(static)
	if err != nil {
		return err
	}

	fmt.Printf("workload:            %s (%d devices)\n", w.Name(), devices)
	fmt.Printf("estimated partition: %s (sample %s, %d evals, %d samples)\n",
		est.Partition, est.SamplePartition, est.Evals, est.Repeats)
	fmt.Printf("simulated run time:  %v\n", estTime)
	fmt.Printf("naive static vector: %s → %v (%.2f%% vs estimate)\n",
		static, staticTime, 100*(float64(staticTime)/float64(estTime)-1))
	fmt.Printf("estimation overhead: %v simulated (%.1f%% of total), %v wall clock\n",
		est.Overhead(), 100*float64(est.Overhead())/float64(est.Overhead()+estTime),
		wallEst.Round(time.Millisecond))

	if skipExh {
		return nil
	}
	ctx := core.WithParallelism(context.Background(), parallelism)
	best, err := core.ExhaustiveSimplex{Step: 5}.SearchPartition(ctx, w, 0, 100)
	if err != nil {
		return err
	}
	fmt.Printf("exhaustive simplex:  %s (%v, step 5, %d evals); search would cost %v simulated\n",
		best.Best, best.BestTime, best.Evals, best.Cost)
	fmt.Printf("slowdown vs best:    %.2f%%\n", 100*(float64(estTime)/float64(best.BestTime)-1))
	return nil
}

func run(workload, dataset, mtxPath string, seed uint64, repeats, parallelism int, skipExh bool) error {
	w, searcher, err := load(workload, dataset, mtxPath, hetsim.Default())
	if err != nil {
		return err
	}
	cfg := core.Config{Searcher: searcher, Seed: seed, Repeats: repeats, Parallelism: parallelism}

	start := time.Now()
	est, err := core.EstimateThreshold(context.Background(), w, cfg)
	if err != nil {
		return err
	}
	wallEst := time.Since(start)
	estTime, err := w.Evaluate(est.Threshold)
	if err != nil {
		return err
	}

	fmt.Printf("workload:            %s\n", w.Name())
	fmt.Printf("estimated threshold: %.2f (sample threshold %.2f, %d evals, %d samples)\n",
		est.Threshold, est.SampleThreshold, est.Evals, est.Repeats)
	fmt.Printf("simulated run time:  %v\n", estTime)
	fmt.Printf("estimation overhead: %v simulated (%.1f%% of total), %v wall clock\n",
		est.Overhead(), 100*float64(est.Overhead())/float64(est.Overhead()+estTime),
		wallEst.Round(time.Millisecond))

	if skipExh {
		return nil
	}
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{Parallelism: parallelism})
	if err != nil {
		return err
	}
	fmt.Printf("exhaustive best:     %.2f (%v); search would cost %v simulated\n",
		best.Best, best.BestTime, best.Cost)
	fmt.Printf("threshold gap:       %.2f; slowdown vs best: %.2f%%\n",
		est.Threshold-best.Best, 100*(float64(estTime)/float64(best.BestTime)-1))
	return nil
}
