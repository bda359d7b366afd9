// Command bench is the repository's end-to-end benchmark: it drives
// fixed, seeded traffic through an in-process hetgate gateway in front
// of three hetserve backends over real loopback listeners, checks every
// answer, and prints the end-to-end metrics of each workload — or, with
// -trace 1, the per-layer metrics of each module.
//
// Run it from the root of a checkout:
//
//	bash bench/run.sh                          # all four workloads
//	bash bench/run.sh -workload hot-repeat -seed 3 -seconds 12 -trace 0
//	bash bench/run.sh -trace 1                 # per-layer metrics
//	bash bench/run.sh -runs 3                  # spread over 3 runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any answer is wrong or any request fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/datasets"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	warmup   float64 // unmeasured seconds before the measured windows
	windows  int     // windows the measured time is cut into
	clients  int
	setups   int // timed cluster set-ups; setup_s is their median
	runs     int
	trace    int
	workdir  string
	commit   string
}

func main() {
	o := options{warmup: 1, windows: 12, setups: 3}
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, in order)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every request sequence and upload body is generated from")
	flag.Float64Var(&o.seconds, "seconds", 12, "measured seconds per workload")
	flag.IntVar(&o.clients, "clients", 2, "closed-loop clients (at most the CPU count)")
	flag.IntVar(&o.runs, "runs", 1, "repeat the run with seeds seed, seed+1, ... and print each metric's spread")
	flag.IntVar(&o.trace, "trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the threshold-store log")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the program was built from, for the host stamp")
	flag.Parse()
	if err := validate(&o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// validate applies the load guard and rejects impossible settings.
func validate(o *options) error {
	// Pin GOMAXPROCS to the CPUs this process may use (nproc), whatever
	// the environment says, so every run schedules the same way.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if o.clients < 1 || o.clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d: want 1..%d (the CPU count); more clients than CPUs measure the scheduler, not the program", o.clients, runtime.NumCPU())
	}
	if o.workload != "" {
		known := false
		for _, n := range workloadNames {
			known = known || n == o.workload
		}
		if !known {
			return fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
		}
	}
	if o.seconds <= 0 || o.runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	return os.MkdirAll(o.workdir, 0o755)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	name      string
	attempted int
	failed    int
	metrics   map[string]metric
	extra     map[string]metric // printed, not part of the JSON line
}

func run(o options) (bool, error) {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	fmt.Printf("host num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.commit, o.seed, o.clients)
	if o.runs > 1 {
		return stability(o, names)
	}
	results, err := runAll(o, names)
	if err != nil {
		return false, err
	}
	return printJSON(results), nil
}

// runAll runs the named workloads in order. Replica generation and the
// quality oracle come first and count toward no workload's set-up.
func runAll(o options, names []string) ([]*result, error) {
	e := &env{seed: o.seed, clients: o.clients, workdir: o.workdir, reps: newReplicas()}
	if usesReplicas(names) {
		t0 := time.Now()
		for _, d := range datasets.All() {
			if _, err := d.Graph(); err != nil {
				return nil, err
			}
			if _, err := d.Matrix(); err != nil {
				return nil, err
			}
		}
		oc, err := newOracle(e.reps)
		if err != nil {
			return nil, err
		}
		e.oracle = oc
		fmt.Printf("replicas and oracle ready in %.1fs\n", time.Since(t0).Seconds())
	}
	var out []*result
	for i, n := range names {
		r, err := runWorkload(n, e, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		printResult(r)
		out = append(out, r)
		if i+1 == len(names) {
			break
		}
		// Start the next workload from the memory a run of it alone
		// would have, so its heap and allocation metrics match one.
		switch {
		case e.reps == nil:
		case usesReplicas(names[i+1:]):
			e.reps.dropMulti()
		default:
			e.reps, e.oracle = nil, nil
			datasets.ResetCache()
		}
		runtime.GC()
	}
	return out, nil
}

// usesReplicas reports whether any of the workloads runs on the Table II
// replicas.
func usesReplicas(names []string) bool {
	for _, n := range names {
		if n == "cold-datasets" || n == "hot-repeat" {
			return true
		}
	}
	return false
}

func printResult(r *result) {
	keys := make([]string, 0, len(r.metrics)+len(r.extra))
	all := map[string]metric{}
	for k, m := range r.metrics {
		keys = append(keys, k)
		all[k] = m
	}
	for k, m := range r.extra {
		keys = append(keys, k)
		all[k] = m
	}
	sort.Strings(keys)
	fmt.Printf("workload %s: %d attempted, %d failed\n", r.name, r.attempted, r.failed)
	for _, k := range keys {
		mark := ""
		if _, ok := r.metrics[k]; !ok {
			mark = "  (not in the JSON line)"
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", k, all[k].Value, all[k].Unit, mark)
	}
}

// printJSON prints the result line and reports whether every answer was
// right. One workload prints its metrics; several print each
// workload's metrics keyed by name.
func printJSON(results []*result) bool {
	out := struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   any  `json:"metrics"`
	}{Correct: true}
	per := map[string]map[string]metric{}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		per[r.name] = r.metrics
	}
	out.Correct = out.Failed == 0
	if len(results) == 1 {
		out.Metrics = results[0].metrics
	} else {
		out.Metrics = per
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding result:", err)
		return false
	}
	fmt.Println(string(b))
	return out.Correct
}
