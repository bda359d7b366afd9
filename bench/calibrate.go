package main

import (
	"runtime"
	"sync"
	"time"
)

// The development host is a 2-vCPU virtual machine on a shared machine:
// in episodes lasting seconds to minutes its CPUs do up to half less
// work per second, while the process keeps both CPUs busy, and every
// wall-clock number moves with them. The benchmark therefore measures
// the host's speed just before each measured window, with a fixed loop
// that shares no code with the program, and reports times scaled to a
// reference speed. The unscaled numbers are printed beside them; see
// STABILITY.md for the spreads with and without scaling.

// referenceSpeed is the calibration rate the scaled times refer to: the
// development host's typical rate when it is not slowed down, so scaled
// and unscaled numbers agree there.
const referenceSpeed = 30000

// calibrationTime is how long each speed measurement runs.
const calibrationTime = 150 * time.Millisecond

// calibrator measures host speed. Its buffers are allocated once, so a
// measurement adds nothing to the allocation metrics.
type calibrator struct {
	bufs [][]uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{bufs: make([][]uint64, runtime.GOMAXPROCS(0))}
	for i := range c.bufs {
		c.bufs[i] = make([]uint64, 1<<17) // 1 MiB: resident in the per-core L2
	}
	return c
}

// speed runs a fixed integer-hash and buffer-update loop on every CPU
// for calibrationTime and returns the blocks of it completed per second.
func (c *calibrator) speed() float64 {
	var wg sync.WaitGroup
	counts := make([]int, len(c.bufs))
	end := time.Now().Add(calibrationTime)
	for k := range c.bufs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			buf := c.bufs[k]
			x := uint64(k + 1)
			for time.Now().Before(end) {
				for i := 0; i < 1<<12; i++ {
					j := int(x>>40) & (len(buf) - 1)
					buf[j] += x
					x = mix(x + buf[(j*7)&(len(buf)-1)])
				}
				counts[k]++
			}
		}(k)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / calibrationTime.Seconds()
}
