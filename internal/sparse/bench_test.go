package sparse

import (
	"fmt"
	"testing"

	"repro/internal/mmio"
	"repro/internal/xrand"
)

func benchMatrix(b *testing.B, class Class, n, nnz int) *CSR {
	b.Helper()
	m, err := Generate(GenConfig{Class: class, Rows: n, NNZ: nnz, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkSpMMSequential measures the Gustavson kernel itself — the
// real compute behind every simulated SpMM evaluation.
func BenchmarkSpMMSequential(b *testing.B) {
	a := benchMatrix(b, ClassUniform, 4000, 120000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SpMM(a, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpMMParallel measures the parallel kernel's scaling across
// worker counts.
func BenchmarkSpMMParallel(b *testing.B) {
	a := benchMatrix(b, ClassUniform, 4000, 120000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := SpMMParallel(a, a, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadVector measures the Phase I primitive of Algorithm 2.
func BenchmarkLoadVector(b *testing.B) {
	a := benchMatrix(b, ClassPowerLaw, 20000, 400000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadVector(a, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniformSubmatrix measures the Sample step of the SpMM
// workload at its served shape: an n/4 × n/4 extraction from a
// replica of 100k rows, the size of the largest Table II replicas.
func BenchmarkUniformSubmatrix(b *testing.B) {
	const n = 100_000
	a := benchMatrix(b, ClassFEM, n, 10*n)
	r := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UniformSubmatrix(r, a, n/4, n/4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleFreeRowSample measures the Section V sampler.
func BenchmarkScaleFreeRowSample(b *testing.B) {
	a := benchMatrix(b, ClassPowerLaw, 40000, 800000)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScaleFreeRowSample(r, a, ScaleFreeSampleConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromTriplets measures the CSR builder on row-major input,
// which it copies, and on the same triplets shuffled, which it sorts.
func BenchmarkFromTriplets(b *testing.B) {
	a := benchMatrix(b, ClassUniform, 10000, 300000)
	coo := a.ToCOO()
	shuffled := a.ToCOO()
	xrand.New(2).Shuffle(len(shuffled.RowIdx), func(i, j int) {
		shuffled.RowIdx[i], shuffled.RowIdx[j] = shuffled.RowIdx[j], shuffled.RowIdx[i]
		shuffled.ColIdx[i], shuffled.ColIdx[j] = shuffled.ColIdx[j], shuffled.ColIdx[i]
		shuffled.Vals[i], shuffled.Vals[j] = shuffled.Vals[j], shuffled.Vals[i]
	})
	for _, in := range []struct {
		name string
		coo  *mmio.COO
	}{{"row-major", coo}, {"shuffled", shuffled}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FromCOO(in.coo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
