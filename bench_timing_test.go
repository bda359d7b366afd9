package repro

// Shared timing for the four microbenchmark reports (BenchmarkSearch,
// BenchmarkPartition, BenchmarkKernels, BenchmarkBatch). Each writes
// the internal/benchfmt schema, which cmd/benchdiff gates:
//
//	cp BENCH_kernels.json /tmp/kernels_baseline.json
//	go test -run '^$' -bench=BenchmarkKernels -benchtime=1x .
//	go run ./cmd/benchdiff -baseline /tmp/kernels_baseline.json -current BENCH_kernels.json

import (
	"sort"
	"testing"
	"time"

	"repro/internal/benchfmt"
)

const (
	// pairRounds is how many alternating rounds a pair of arms runs;
	// the report keeps the median per-round ratio.
	pairRounds = 7
	// kernelArmTime is the least time the tuned arm of a kernel pair
	// runs per round, so a round is never a handful of timer ticks.
	kernelArmTime = 500 * time.Microsecond
	// parallelArmTime is the same floor for pairs whose arms use
	// several cores (search, partition parity, batch). Such an arm
	// reads slow for as long as a neighbour on the host takes one of
	// its cores; a round this long spans those periods instead of
	// landing inside one.
	parallelArmTime = 100 * time.Millisecond
)

// arm runs one side of a comparison n times and returns the time the
// measured work took.
type arm func(n int) time.Duration

// loop is the arm that runs fn back to back.
func loop(fn func()) arm {
	return func(n int) time.Duration {
		start := time.Now()
		for range n {
			fn()
		}
		return time.Since(start)
	}
}

// pairRatio returns the median over pairRounds rounds of time(a) /
// time(b). Both arms are warmed first, and n is doubled until b takes
// at least minTime. The arms swap which one runs first every round,
// so a warm cache or a burst of host noise never lands on one arm only.
func pairRatio(a, b arm, minTime time.Duration) float64 {
	a(1)
	n := 1
	for b(n) < minTime {
		n *= 2
	}
	ratios := make([]float64, pairRounds)
	for r := range ratios {
		var ta, tb time.Duration
		if r%2 == 0 {
			ta, tb = a(n), b(n)
		} else {
			tb, ta = b(n), a(n)
		}
		ratios[r] = float64(ta) / float64(tb)
	}
	sort.Float64s(ratios)
	return ratios[pairRounds/2]
}

// boolValue is the 0/1 value of a row pinned with Min 1.
func boolValue(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// writeReport stores rep at path and logs its rows.
func writeReport(b *testing.B, rep benchfmt.Report, path string) {
	b.Helper()
	if err := rep.Write(path); err != nil {
		b.Fatal(err)
	}
	for _, r := range rep.Rows {
		b.Logf("%s = %.4g %s", r.Key(), r.Value, r.Unit)
	}
	b.Logf("wrote %s (%d rows, gomaxprocs=%d, num_cpu=%d)", path, len(rep.Rows), rep.GOMAXPROCS, rep.NumCPU)
}
