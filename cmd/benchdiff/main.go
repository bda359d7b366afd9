// Command benchdiff compares a freshly recorded microbenchmark report
// against its committed baseline and exits non-zero when the gate
// fails.
//
//	go run ./cmd/benchdiff -baseline BENCH_search.json -current /tmp/BENCH_search.json
//
// Every report (BENCH_search, BENCH_partition, BENCH_kernels,
// BENCH_batch) has the one schema of internal/benchfmt, and every row
// is held to the same rules:
//
//   - one host rule: e = min(P, gomaxprocs, num_cpu), where P is the
//     row's cores (one when unset). A row is comparable only when e is
//     the same in both reports; otherwise the gate fails, it never
//     skips. A parallel speedup above e is a measurement artifact and
//     fails too.
//   - timings and ratios (units ns, ms, x) must be positive.
//   - min and max hold; where both reports bound a row, the tighter
//     bound wins.
//   - no regression beyond 30% of the baseline value in the direction
//     the row's better gives.
//   - every baseline row is present; a new row needs no baseline.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/benchfmt"
)

// tolerance is the fractional regression allowed against the baseline:
// wall-clock ratios on shared hosts are noisy.
const tolerance = 0.30

// positive lists the units a broken recording shows as zero or less.
var positive = map[string]bool{"ns": true, "ms": true, "x": true}

// compare returns every gate violation of current against baseline, in
// report order. An empty slice means the gate passes.
func compare(baseline, current benchfmt.Report) []string {
	var problems []string
	fail := func(key, format string, args ...any) {
		problems = append(problems, key+": "+fmt.Sprintf(format, args...))
	}

	base := map[string]benchfmt.Row{}
	for _, r := range baseline.Rows {
		base[r.Key()] = r
	}
	seen := map[string]bool{}
	for _, cur := range current.Rows {
		key := cur.Key()
		seen[key] = true
		b, hasBase := base[key]
		e := current.Effective(cur)
		if hasBase {
			if be := baseline.Effective(b); be != e {
				fail(key, "not comparable: e = min(P, gomaxprocs, num_cpu) is %d in the baseline and %d in the current report; record both on the same effective cores", be, e)
				continue
			}
		}
		if positive[cur.Unit] && !(cur.Value > 0) {
			fail(key, "non-positive %s %g: the recording is broken", cur.Unit, cur.Value)
			continue
		}
		if cur.Metric == benchfmt.ParallelSpeedup && cur.Value > float64(e) {
			fail(key, "parallel speedup %.2fx exceeds the %d effective core(s) it ran on: a measurement artifact", cur.Value, e)
		}
		// The tighter of the two reports' bounds holds, so a floor
		// lowered in code still meets the committed one.
		lo, hi := cur.Min, cur.Max
		if hasBase {
			if b.Min != nil && (lo == nil || *b.Min > *lo) {
				lo = b.Min
			}
			if b.Max != nil && (hi == nil || *b.Max < *hi) {
				hi = b.Max
			}
		}
		if lo != nil && cur.Value < *lo {
			fail(key, "%g %s below the floor %g", cur.Value, cur.Unit, *lo)
		}
		if hi != nil && cur.Value > *hi {
			fail(key, "%g %s above the ceiling %g", cur.Value, cur.Unit, *hi)
		}
		if !hasBase {
			continue
		}
		slack := math.Abs(b.Value) * tolerance
		switch {
		case b.Better == "higher" && cur.Value < b.Value-slack:
			fail(key, "regressed to %g %s from baseline %g (floor %g at %.0f%% tolerance)", cur.Value, cur.Unit, b.Value, b.Value-slack, tolerance*100)
		case b.Better == "lower" && cur.Value > b.Value+slack:
			fail(key, "regressed to %g %s from baseline %g (limit %g at %.0f%% tolerance)", cur.Value, cur.Unit, b.Value, b.Value+slack, tolerance*100)
		}
	}
	for _, b := range baseline.Rows {
		if !seen[b.Key()] {
			fail(b.Key(), "present in the baseline but missing from the current report")
		}
	}
	return problems
}

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline report (required)")
	currentPath := flag.String("current", "", "freshly recorded report (required)")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	baseline, err := benchfmt.Load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	current, err := benchfmt.Load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if problems := compare(baseline, current); len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d problem(s):\n", len(problems))
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  -", p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok — %d row(s) at gomaxprocs=%d num_cpu=%d, no regressions\n",
		len(current.Rows), current.GOMAXPROCS, current.NumCPU)
}
