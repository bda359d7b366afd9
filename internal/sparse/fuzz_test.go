package sparse

// Fuzz harnesses pinning the tuned kernels to their references on
// arbitrary inputs. `go test` runs the seed corpus on every CI pass
// (including under -race); `go test -fuzz=FuzzName ./internal/sparse`
// explores further.

import (
	"math"
	"reflect"
	"testing"
)

// fuzzCSR decodes a byte string into a small CSR: the first two bytes
// pick the shape, the rest supply triplets. Always yields a valid
// matrix (FromTriplets sorts and collapses duplicates).
func fuzzCSR(data []byte) *CSR {
	if len(data) < 2 {
		data = append(data, 1, 1)
	}
	rows := int(data[0]%32) + 1
	cols := int(data[1]%32) + 1
	rest := data[2:]
	n := len(rest) / 3
	ri := make([]int32, 0, n)
	ci := make([]int32, 0, n)
	vs := make([]float64, 0, n)
	for k := 0; k+2 < len(rest); k += 3 {
		ri = append(ri, int32(int(rest[k])%rows))
		ci = append(ci, int32(int(rest[k+1])%cols))
		vs = append(vs, float64(int(rest[k+2]))-128)
	}
	m, err := FromTriplets(rows, cols, ri, ci, vs)
	if err != nil {
		panic(err) // indices are always in range by construction
	}
	return m
}

func FuzzSymbolicMatchesReference(f *testing.F) {
	f.Add([]byte{4, 4, 0, 1, 9, 1, 2, 9, 2, 3, 9, 3, 0, 9})
	f.Add([]byte{2, 31, 0, 30, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzCSR(data)
		// Reuse the tail of data (reversed shape) for B so A·B is
		// always dimension-compatible.
		b := fuzzCSR(append([]byte{byte(a.Cols - 1), byte(a.Rows - 1)}, data...))
		if b.Rows != a.Cols {
			t.Fatalf("fuzzCSR shape contract broken: %d != %d", b.Rows, a.Cols)
		}
		load, err := LoadVector(a, b)
		if err != nil {
			t.Fatal(err)
		}
		loadRef, err := LoadVectorRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(load, loadRef) {
			t.Fatalf("load vector %v, reference %v", load, loadRef)
		}
		counts, flops, err := RowOutputCounts(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		countsRef, flopsRef, err := RowOutputCountsRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if flops != flopsRef || !reflect.DeepEqual(counts, countsRef) {
			t.Fatalf("symbolic counts %v (flops %d), reference %v (flops %d)",
				counts, flops, countsRef, flopsRef)
		}
	})
}

func FuzzSplitRowByWorkMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 1}, 0.3333333333333333)
	f.Add([]byte{10, 0, 0, 10}, 0.5)
	f.Add([]byte{255, 1, 255}, 0.999)
	f.Add([]byte{}, 0.5)
	f.Fuzz(func(t *testing.T, data []byte, frac float64) {
		if math.IsNaN(frac) {
			return
		}
		load := make([]int64, len(data))
		for i, v := range data {
			load[i] = int64(v)
		}
		want := SplitRowByWorkRef(load, frac)
		if want < 0 || want > len(load) {
			t.Fatalf("reference split %d outside [0, %d]", want, len(load))
		}
		if got := SplitRowByWorkPrefix(prefixSums(load), frac); got != want {
			t.Fatalf("SplitRowByWorkPrefix(%v, %v) = %d, reference %d", load, frac, got, want)
		}
	})
}
