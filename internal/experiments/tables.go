package experiments

import (
	"fmt"
	"io"

	"repro/internal/datasets"
)

// Table1Result aggregates the three case studies the way the paper's
// Table I does.
type Table1Result struct {
	Summaries []Summary
	// The underlying figures, for drill-down.
	CC        *Fig3Result
	SpMM      *Fig5Result
	ScaleFree *Fig8Result
}

// Table1 runs the CC, SpMM and scale-free SpMM case studies and
// averages their threshold difference, time difference, and overhead
// columns.
func Table1(opts Options) (*Table1Result, error) {
	cc, err := Fig3(opts)
	if err != nil {
		return nil, fmt.Errorf("table1 cc: %w", err)
	}
	spmm, err := Fig5(opts)
	if err != nil {
		return nil, fmt.Errorf("table1 spmm: %w", err)
	}
	sf, err := Fig8(opts)
	if err != nil {
		return nil, fmt.Errorf("table1 scale-free: %w", err)
	}
	return &Table1Result{
		Summaries: []Summary{
			Summarize("CC", cc.Rows),
			Summarize("spmm", spmm.Rows),
			Summarize("Scale-free spmm", sf.Rows),
		},
		CC: cc, SpMM: spmm, ScaleFree: sf,
	}, nil
}

// Render writes the table as text.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table I — summary of the sampling technique on three workloads")
	fmt.Fprintf(w, "%-17s %16s %16s %10s\n", "Workload", "Threshold Diff %", "Time Diff %", "Overhead %")
	for _, s := range r.Summaries {
		fmt.Fprintf(w, "%-17s %16.2f %16.2f %10.2f\n",
			s.Workload, s.ThresholdDiffPct, s.TimeDiffPct, s.OverheadPct)
	}
}

// Table2Result is the dataset registry view.
type Table2Result struct {
	Datasets []datasets.Dataset
}

// Table2 returns the Table II registry (paper sizes, replica sizes and
// scale factors).
func Table2(opts Options) (*Table2Result, error) {
	return &Table2Result{Datasets: opts.pick(datasets.All())}, nil
}

// Render writes the table as text.
func (r *Table2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table II — dataset replicas (paper size → scaled synthetic replica)")
	fmt.Fprintf(w, "%-17s %-6s %12s %12s %7s %10s %10s %11s\n",
		"dataset", "group", "paper n", "paper nnz", "scale", "n", "nnz", "scale-free")
	for _, d := range r.Datasets {
		sf := ""
		if d.ScaleFree {
			sf = "yes"
		}
		fmt.Fprintf(w, "%-17s %-6s %12d %12d %7d %10d %10d %11s\n",
			d.Name, d.Group, d.PaperN, d.PaperNNZ, d.Scale, d.N(), d.NNZ(), sf)
	}
}
