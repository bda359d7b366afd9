// Custom workload: plugging a user-defined heterogeneous algorithm
// into the partitioning framework. The framework only needs two
// things — a way to evaluate a threshold on the input (core.Workload)
// and a way to build a miniature of the input (core.Sampled). This
// example partitions a synthetic "image pipeline": a batch of images
// with wildly varying sizes, where the CPU handles the oversized
// stragglers and the GPU the regular bulk.
//
//	go run ./examples/custom
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

// imageBatch is the user's input: per-image pixel counts.
type imageBatch struct {
	name     string
	pixels   []int64
	platform *hetsim.Platform
}

// newBatch draws a heavy-tailed batch: most images are small, a few
// are panoramas.
func newBatch(name string, n int, seed uint64) *imageBatch {
	r := xrand.New(seed)
	z := xrand.NewZipf(r, 4000, 1.4)
	px := make([]int64, n)
	for i := range px {
		px[i] = int64(1+z.Next()) * 4096 // 4k pixels granularity
	}
	return &imageBatch{name: name, pixels: px, platform: hetsim.Default()}
}

// Evaluate implements core.Workload: threshold t sends the largest t%
// of the total pixel volume to the CPU (big images divide poorly into
// GPU tiles), the rest to the GPU, processed concurrently.
func (b *imageBatch) Evaluate(t float64) (time.Duration, error) {
	if t < 0 || t > 100 {
		return 0, fmt.Errorf("threshold %v outside [0,100]", t)
	}
	// Sort-free split: descending size order is approximated by a
	// size cutoff so Evaluate stays O(n).
	var total int64
	var maxPx int64
	for _, p := range b.pixels {
		total += p
		if p > maxPx {
			maxPx = p
		}
	}
	target := int64(t / 100 * float64(total))
	// Binary search the size cutoff above which ~t% of volume lives.
	lo, hi := int64(0), maxPx
	for lo < hi {
		mid := (lo + hi + 1) / 2
		var above int64
		for _, p := range b.pixels {
			if p >= mid {
				above += p
			}
		}
		if above > target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	var cpuPx, gpuPx, gpuItems int64
	var gpuSq float64
	for _, p := range b.pixels {
		if p >= lo && cpuPx < target {
			cpuPx += p
		} else {
			gpuPx += p
			gpuItems++
			gpuSq += float64(p) * float64(p)
		}
	}
	cpu := b.platform.CPU.Time(hetsim.Kernel{
		Ops: 40 * cpuPx, Bytes: 4 * cpuPx, ParallelFraction: 0.95,
	})
	cv := 0.0
	if gpuItems > 1 && gpuPx > 0 {
		mean := float64(gpuPx) / float64(gpuItems)
		variance := gpuSq/float64(gpuItems) - mean*mean
		if variance > 0 {
			cv = math.Sqrt(variance) / mean
		}
	}
	gpu := b.platform.GPUs[0].Time(hetsim.Kernel{
		Ops: 40 * gpuPx, Bytes: 4 * gpuPx, ParallelFraction: 1, IrregularityCV: cv,
	})
	gpu += b.platform.Link.Transfer(4 * gpuPx)
	return hetsim.Overlap(cpu, gpu), nil
}

// Name implements core.Workload.
func (b *imageBatch) Name() string { return "imagepipe/" + b.name }

// Sample implements core.Sampled: a 1/30 uniform subsample preserves
// the size distribution while keeping Identify cheap.
func (b *imageBatch) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	k := len(b.pixels) / 30
	if k < 1 {
		k = 1
	}
	var subset xrand.Subset
	idx := subset.Draw(r, len(b.pixels), k)
	sub := &imageBatch{name: b.name + "-sample", platform: b.platform}
	for _, i := range idx {
		sub.pixels = append(sub.pixels, b.pixels[i])
	}
	cost := b.platform.CPU.Time(hetsim.Kernel{Ops: int64(len(b.pixels)), Launches: 1})
	return sub, cost, nil
}

// Extrapolate implements core.Sampled: volume shares transfer
// directly between the sample and the full batch.
func (b *imageBatch) Extrapolate(t float64) float64 { return t }

func main() {
	batch := newBatch("nightly-8k", 8000, 11)

	est, err := core.EstimateThreshold(context.Background(), batch, core.Config{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	best, err := core.ExhaustiveBest(context.Background(), batch, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	estTime, _ := batch.Evaluate(est.Threshold)
	fmt.Printf("custom workload %q over %d images\n", batch.Name(), len(batch.pixels))
	fmt.Printf("sampling estimate: send the largest %.1f%% of pixel volume to the CPU → %v\n",
		est.Threshold, estTime)
	fmt.Printf("exhaustive best:   %.1f%% → %v (the search costs %v)\n",
		best.Best, best.BestTime, best.Cost)
	fmt.Printf("estimation overhead: %v (%d evaluations on 1/30-size samples)\n",
		est.Overhead(), est.Evals)
}
