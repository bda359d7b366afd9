package sparse

// Fuzz harnesses pinning the tuned kernels to their references on
// arbitrary inputs. `go test` runs the seed corpus on every CI pass
// (including under -race); `go test -fuzz=FuzzName ./internal/sparse`
// explores further.

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/xrand"
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

// FuzzFromTripletsOrderInvariant holds the CSR build to one answer
// whatever order the triplets arrive in: built row-major with
// ascending columns (the copy path when no entry repeats), in the
// order the fuzzer gave, and shuffled, the matrices must be bitwise
// equal. The first byte picks the shape, the second whether repeated
// entries are dropped (so the row-major build takes the copy path) and
// whether the matrix is a pattern, and seeds the shuffle. Values are
// quarters of small integers, so duplicate sums are exact in any order.
func FuzzFromTripletsOrderInvariant(f *testing.F) {
	f.Add([]byte{0x45, 1, 0, 1, 9, 1, 2, 9, 2, 3, 9, 3, 0, 9})
	f.Add([]byte{0x45, 0, 0, 1, 9, 0, 1, 7, 2, 3, 9, 0, 1, 200})
	f.Add([]byte{0x21, 3, 5, 5, 1, 0, 0, 2, 5, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0]&7)+1, int(data[0]>>3)+1
		unique, pattern := data[1]&1 != 0, data[1]&2 != 0
		type triplet struct {
			r, c int32
			v    float64
		}
		var ts []triplet
		seen := map[[2]int32]bool{}
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			r, c := int32(int(rest[0])%rows), int32(int(rest[1])%cols)
			if unique && seen[[2]int32{r, c}] {
				continue
			}
			seen[[2]int32{r, c}] = true
			ts = append(ts, triplet{r, c, float64(int(rest[2])-128) / 4})
		}
		build := func(ts []triplet) *CSR {
			ri, ci := make([]int32, len(ts)), make([]int32, len(ts))
			var vs []float64
			if !pattern {
				vs = make([]float64, len(ts))
			}
			for k, e := range ts {
				ri[k], ci[k] = e.r, e.c
				if vs != nil {
					vs[k] = e.v
				}
			}
			m, err := FromTriplets(rows, cols, ri, ci, vs)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		rowMajor := slices.Clone(ts)
		slices.SortStableFunc(rowMajor, func(a, b triplet) int {
			return cmp.Or(cmp.Compare(a.r, b.r), cmp.Compare(a.c, b.c))
		})
		shuffled := slices.Clone(ts)
		r := xrand.New(uint64(data[1]))
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		want := build(rowMajor)
		if err := want.Validate(); err != nil {
			t.Fatal(err)
		}
		for name, order := range map[string][]triplet{"given": ts, "shuffled": shuffled} {
			if got := build(order); !bitwiseEqual(got, want) {
				t.Fatalf("%s order: %+v, row-major %+v", name, got, want)
			}
		}
	})
}

// bitwiseEqual is Equal with values compared bit for bit.
func bitwiseEqual(a, b *CSR) bool {
	if !a.Equal(b) {
		return false
	}
	for k := range a.Vals {
		if math.Float64bits(a.Vals[k]) != math.Float64bits(b.Vals[k]) {
			return false
		}
	}
	return true
}
