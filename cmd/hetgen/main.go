// Command hetgen writes the synthetic Table II replicas (or any
// generator configuration) as MatrixMarket files, so the datasets the
// experiments run on can be inspected or consumed by other tools.
//
// Usage:
//
//	hetgen -out data/                 # all Table II replicas
//	hetgen -dataset cant -out data/   # one replica
//	hetgen -class powerlaw -n 10000 -nnz 200000 -seed 7 -out data/custom.mtx
//	hetgen -features -dataset cant    # print the structural feature vector
//
// With -features, hetgen prints each matrix's structural feature
// vector (the hetstore transfer key: rows, nnz, per-row work moments,
// bandwidth) instead of writing files, as a diagnostic: it is the
// vector hetserve measures and reports in an answer's "features"
// field.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/datasets"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/store"
)

func main() {
	var (
		out      = flag.String("out", ".", "output directory (or file for -class mode)")
		dataset  = flag.String("dataset", "", "single Table II dataset to emit (default: all)")
		class    = flag.String("class", "", "custom generation: uniform | fem | powerlaw | road")
		n        = flag.Int("n", 10000, "custom generation: rows")
		nnz      = flag.Int("nnz", 100000, "custom generation: nonzero target")
		seed     = flag.Uint64("seed", 42, "custom generation: seed")
		features = flag.Bool("features", false, "print structural feature vectors (as hetserve reports them) instead of writing files")
	)
	flag.Parse()

	if err := run(os.Stdout, *out, *dataset, *class, *n, *nnz, *seed, *features); err != nil {
		fmt.Fprintln(os.Stderr, "hetgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, out, dataset, class string, n, nnz int, seed uint64, features bool) error {
	if class != "" {
		cls, err := parseClass(class)
		if err != nil {
			return err
		}
		m, err := sparse.Generate(sparse.GenConfig{Class: cls, Rows: n, NNZ: nnz, Seed: seed})
		if err != nil {
			return err
		}
		if features {
			fmt.Fprintf(w, "%s\t%s\n", class, store.FromCSR(m).String())
			return nil
		}
		path := out
		if fi, err := os.Stat(out); err == nil && fi.IsDir() {
			path = filepath.Join(out, fmt.Sprintf("%s_%d.mtx", class, n))
		}
		return write(w, path, m)
	}

	ds := datasets.All()
	if dataset != "" {
		d, err := datasets.ByName(dataset)
		if err != nil {
			return err
		}
		ds = []datasets.Dataset{d}
	}
	for _, d := range ds {
		m, err := d.Matrix()
		if err != nil {
			return err
		}
		if features {
			fmt.Fprintf(w, "%s\t%s\n", d.Name, store.FromCSR(m).String())
			continue
		}
		path := filepath.Join(out, d.Name+".mtx")
		if err := write(w, path, m); err != nil {
			return err
		}
	}
	return nil
}

func parseClass(s string) (sparse.Class, error) {
	switch s {
	case "uniform":
		return sparse.ClassUniform, nil
	case "fem":
		return sparse.ClassFEM, nil
	case "powerlaw":
		return sparse.ClassPowerLaw, nil
	case "road":
		return sparse.ClassRoad, nil
	}
	return 0, fmt.Errorf("unknown class %q", s)
}

func write(w io.Writer, path string, m *sparse.CSR) error {
	if err := mmio.WriteFile(path, m.ToCOO()); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%dx%d, %d nnz)\n", path, m.Rows, m.Cols, m.NNZ())
	return nil
}
