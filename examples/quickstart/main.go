// Quickstart: estimate a work-partition threshold for heterogeneous
// connected components on a generated graph in a few lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetcc"
	"repro/internal/hetsim"
)

func main() {
	// 1. An input instance: a synthetic road network with 50k
	//    vertices (substitute your own graph here).
	g, err := graph.Generate(graph.GenGraphConfig{
		Kind: graph.KindRoad,
		N:    50000,
		Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A heterogeneous platform (a simulated Xeon + K40c pair) and
	//    the heterogeneous CC algorithm on it.
	platform := hetsim.Default()
	alg := hetcc.NewAlgorithm(platform)

	// 3. Estimate the partition threshold by sampling: √n vertices
	//    are drawn, the algorithm is swept over the miniature, and
	//    the best sample threshold is extrapolated to the full input.
	w := hetcc.NewWorkload("road-50k", g, alg)
	est, err := core.EstimateThreshold(context.Background(), w, core.Config{Seed: 42, Repeats: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated threshold: %.1f%% of vertices on the CPU\n", est.Threshold)
	fmt.Printf("estimation overhead: %v simulated (%d sample evaluations)\n",
		est.Overhead(), est.Evals)

	// 4. Run the heterogeneous algorithm at the estimated threshold: the
	// CPU takes t% of the vertices, the GPU the rest.
	res, err := alg.Run(g, core.Partition{est.Threshold, 100 - est.Threshold})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected components: %d\n", res.Components)
	fmt.Printf("simulated time: %v (CPU %v ∥ GPU %v, %d cross edges)\n",
		res.Time, res.CPUTime, res.GPUTime, res.CrossEdges)

	// 5. Compare against the impractical exhaustive search.
	best, err := core.ExhaustiveBest(context.Background(), w, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive best: %.1f (%v) — the search itself would cost %v\n",
		best.Best, best.BestTime, best.Cost)
}
