// Package benchfmt is the one schema of the repository's
// microbenchmark reports (BENCH_search.json, BENCH_partition.json,
// BENCH_kernels.json and BENCH_batch.json): a host stamp and a list of
// rows, each one gated number. The root benchmarks write it and
// cmd/benchdiff compares two of them.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Report is one recording: the host it ran on and its rows.
type Report struct {
	GOMAXPROCS int   `json:"gomaxprocs"`
	NumCPU     int   `json:"num_cpu"`
	Rows       []Row `json:"rows"`
}

// Row is one gated number. Layer, Case and Metric identify it across
// recordings; Better ("higher" or "lower") is the direction the
// regression rule checks.
type Row struct {
	Layer  string  `json:"layer"`
	Case   string  `json:"case"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// Cores is the parallelism P the row measured; zero means one.
	Cores int `json:"cores,omitempty"`
	// Min and Max, when set, bound Value absolutely.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// ParallelSpeedup is the metric of a P-way arm's speedup over the
// sequential arm of the same work. It can never exceed the cores the
// recording could actually use.
const ParallelSpeedup = "parallel_speedup"

// Key identifies a row across recordings.
func (r Row) Key() string { return r.Layer + "/" + r.Case + "/" + r.Metric }

// Bound returns a pointer to v, for Row.Min and Row.Max.
func Bound(v float64) *float64 { return &v }

// New returns an empty report stamped with this process's host.
func New() Report {
	return Report{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// Effective is e = min(P, gomaxprocs, num_cpu): the cores the row's
// measurement could actually run on in this recording.
func (rep Report) Effective(r Row) int {
	return max(min(max(r.Cores, 1), rep.GOMAXPROCS, rep.NumCPU), 1)
}

// Write stores the report as indented JSON.
func (rep Report) Write(path string) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Load reads a report and rejects one no comparison could trust: no
// rows, a duplicate key or an unknown direction.
func Load(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Rows) == 0 {
		return rep, fmt.Errorf("%s: report has no rows", path)
	}
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		if seen[r.Key()] {
			return rep, fmt.Errorf("%s: duplicate row %s", path, r.Key())
		}
		seen[r.Key()] = true
		if r.Better != "higher" && r.Better != "lower" {
			return rep, fmt.Errorf("%s: row %s: better is %q, want higher or lower", path, r.Key(), r.Better)
		}
	}
	return rep, nil
}
