package repro

// BenchmarkKernels measures the tuned kernels the service runs against
// their frozen reference implementations and writes BENCH_kernels.json.
//
//	go test -run '^$' -bench=BenchmarkKernels -benchtime=1x .
//
// Each row times the reference body (reference.go in internal/sparse
// and internal/graph — the pre-tuning implementations, kept compiled
// so they cannot rot) and the tuned kernel on the same input in
// alternating rounds (bench_timing_test.go), and records the median
// per-round reference/tuned ratio. The last row is the geometric mean
// of the ratios, held at 1.3× or more. Both arms run in one process on
// one core, so the rows compare across hosts.
//
// The golden suite (kernels_golden_test.go) pins tuned and reference
// bit-identical, so these pairs time the same computation by
// construction.

import (
	"math"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// benchSink defeats dead-code elimination of benchmark results.
var benchSink any

func BenchmarkKernels(b *testing.B) {
	rep := benchfmt.New()
	logSum := 0.0
	add := func(kernel, dataset string, ref, tuned arm) {
		speedup := pairRatio(ref, tuned, kernelArmTime)
		logSum += math.Log(speedup)
		rep.Rows = append(rep.Rows, benchfmt.Row{Layer: "kernels", Case: kernel + "/" + dataset,
			Metric: "speedup", Value: speedup, Unit: "x", Better: "higher"})
	}

	for _, name := range goldenDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		m, err := d.Matrix()
		if err != nil {
			b.Fatal(err)
		}
		g, err := d.Graph()
		if err != nil {
			b.Fatal(err)
		}

		// --- sparse matrix kernels -------------------------------------
		ref := loop(func() {
			load, err := sparse.LoadVectorRef(m, m)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = load
		})
		tuned := loop(func() {
			load, err := sparse.LoadVector(m, m)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = load
		})
		add("loadvec", name, ref, tuned)

		ref = loop(func() {
			counts, _, err := sparse.RowOutputCountsRef(m, m)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = counts
		})
		countsBuf := make([]int64, m.Rows)
		tuned = loop(func() {
			counts, _, err := sparse.RowOutputCounts(countsBuf, m, m)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = counts
		})
		add("symbolic", name, ref, tuned)

		// The split kernel is timed over the full 101-point threshold
		// grid, the unit of work an Identify sweep performs. The tuned
		// arm binary-searches the prefix-sum array the profile builders
		// cache once per dataset (built outside the timing, like the
		// profiles do).
		load, err := sparse.LoadVector(m, m)
		if err != nil {
			b.Fatal(err)
		}
		prefix := make([]int64, len(load)+1)
		for i, v := range load {
			prefix[i+1] = prefix[i] + v
		}
		ref = loop(func() {
			acc := 0
			for t := 0; t <= 100; t++ {
				acc += sparse.SplitRowByWorkRef(load, float64(t)/100)
			}
			benchSink = acc
		})
		tuned = loop(func() {
			acc := 0
			for t := 0; t <= 100; t++ {
				acc += sparse.SplitRowByWorkPrefix(prefix, float64(t)/100)
			}
			benchSink = acc
		})
		add("split-grid", name, ref, tuned)

		// --- connected-components kernel --------------------------------
		// The service's time-only evaluations run one CC kernel:
		// Shiloach–Vishkin on each accelerator's range, read from the
		// original CSR through a split index, here on the range [n/2, n);
		// the reference runs on the materialized part. The CPU prefix
		// kernels run only in hetcc.Run, so the golden suite, the
		// allocation pin and the fuzz target hold them, not this gate.
		// The part and the split index are built outside the timing, as
		// the runner builds them once per partition.
		n := g.N
		half := splitIndex(g, n/2)
		gpuPart := rangeGraph(g, n/2, n)
		var res graph.CCResult
		refScratch, servedScratch := new(graph.CCScratch), new(graph.CCScratch)
		ref = loop(func() {
			graph.ShiloachVishkinRef(gpuPart, &res, refScratch)
		})
		tuned = loop(func() {
			graph.ShiloachVishkinRangeInto(g.RowPtr, g.Adj, half, n/2, n, &res, servedScratch)
		})
		add("cc-sv-range", name, ref, tuned)
	}

	rep.Rows = append(rep.Rows, benchfmt.Row{Layer: "kernels", Case: "geomean", Metric: "speedup",
		Value: math.Exp(logSum / float64(len(rep.Rows))), Unit: "x", Better: "higher", Min: benchfmt.Bound(1.3)})
	writeReport(b, rep, "BENCH_kernels.json")
}
