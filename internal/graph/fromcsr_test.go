package graph_test

// FromCSR builds pattern(A) ∪ pattern(Aᵀ) by a transpose and a sorted
// row merge. fromCSRRef freezes the edge-list build it replaced; these
// tests hold the two to identical N, RowPtr and Adj on random square
// matrices, on every Table II replica and on parsed upload bodies.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// fromCSRRef is FromCSR as it was: one edge per unordered pair (an
// entry below the diagonal only when its mirror is absent or zero),
// symmetrized and deduplicated by FromEdges.
func fromCSRRef(m *sparse.CSR) (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, j := range cols {
			if int32(i) <= j {
				edges = append(edges, graph.Edge{U: int32(i), V: j})
			} else if m.At(int(j), i) == 0 {
				edges = append(edges, graph.Edge{U: j, V: int32(i)})
			}
		}
	}
	return graph.FromEdges(m.Rows, edges)
}

// checkFromCSR fails t unless FromCSR(m) equals the reference.
func checkFromCSR(t *testing.T, name string, m *sparse.CSR) {
	t.Helper()
	got, err := graph.FromCSR(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := fromCSRRef(m)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("%s: graph differs from the reference (N %d/%d, arcs %d/%d)",
			name, got.N, want.N, len(got.Adj), len(want.Adj))
	}
	if cap(got.Adj) > cap(want.Adj) {
		t.Errorf("%s: Adj capacity %d, reference %d", name, cap(got.Adj), cap(want.Adj))
	}
}

// randomSquare builds an n×n matrix of nnz random entries: asymmetric
// and mirrored pairs, diagonal entries and empty rows all come up.
// Some values are zero, so a mirror can be stored yet read as absent.
func randomSquare(r *xrand.Rand, n, nnz int, valued bool) *sparse.CSR {
	rows := make([]int32, 0, nnz)
	cols := make([]int32, 0, nnz)
	var vals []float64
	for k := 0; k < nnz && n > 0; k++ {
		i, j := int32(r.Intn(n)), int32(r.Intn(n))
		if r.Intn(4) == 0 {
			j = i
		}
		rows = append(rows, i)
		cols = append(cols, j)
		if valued {
			vals = append(vals, float64(r.Intn(3)))
		}
		if r.Intn(3) == 0 {
			rows = append(rows, j)
			cols = append(cols, i)
			if valued {
				vals = append(vals, float64(r.Intn(3)))
			}
		}
	}
	m, err := sparse.FromTriplets(n, n, rows, cols, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestFromCSRMatchesReferenceRandom(t *testing.T) {
	r := xrand.New(7)
	for _, n := range []int{0, 1, 2, 3, 7, 40, 300} {
		for _, density := range []int{0, 1, 3, 10} {
			for _, valued := range []bool{false, true} {
				m := randomSquare(r, n, density*n, valued)
				checkFromCSR(t, "random", m)
			}
		}
	}
	rect, _ := sparse.FromTriplets(3, 2, []int32{2}, []int32{1}, nil)
	if _, err := graph.FromCSR(rect); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestFromCSRMatchesReferenceReplicas(t *testing.T) {
	for _, d := range datasets.All() {
		m, err := d.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		checkFromCSR(t, d.Name, m)
	}
}

// TestFromCSRMatchesReferenceUploads parses one upload body of each
// matrix class the way hetserve does — structure only — and holds the
// graph to the reference built from the valued parse.
func TestFromCSRMatchesReferenceUploads(t *testing.T) {
	for _, class := range []sparse.Class{sparse.ClassUniform, sparse.ClassFEM, sparse.ClassPowerLaw, sparse.ClassRoad} {
		gen, err := sparse.Generate(sparse.GenConfig{Class: class, Rows: 2000, NNZ: 16000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		if err := mmio.Write(&body, gen.ToCOO()); err != nil {
			t.Fatal(err)
		}
		valued, err := mmio.ReadLimited(bytes.NewReader(body.Bytes()), 0)
		if err != nil {
			t.Fatal(err)
		}
		structure, err := mmio.ReadStructure(bytes.NewReader(body.Bytes()), 0)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sparse.FromCOO(valued)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := sparse.FromCOO(structure)
		if err != nil {
			t.Fatal(err)
		}
		got, err := graph.FromCSR(sm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fromCSRRef(vm)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Adj, want.Adj) {
			t.Errorf("%v upload: structure-read graph differs from the valued reference", class)
		}
	}
}

// FuzzFromCSR decodes the input as an n×n matrix — the first byte is
// n, each following byte pair an entry whose value is its row byte's
// low bit, so zeros come up — and holds FromCSR to the reference.
func FuzzFromCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{3, 0, 1, 1, 0, 2, 2})
	f.Add([]byte{4, 3, 0, 0, 3, 1, 2, 5, 5, 9, 0})
	f.Add([]byte{5, 1, 2, 3, 4, 4, 3, 2, 1, 0, 0, 7, 7, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 32
		var rows, cols []int32
		var vals []float64
		for k := 1; k+1 < len(data) && n > 0; k += 2 {
			rows = append(rows, int32(int(data[k])%n))
			cols = append(cols, int32(int(data[k+1])%n))
			vals = append(vals, float64(data[k]&1))
		}
		m, err := sparse.FromTriplets(n, n, rows, cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		checkFromCSR(t, "fuzz", m)
	})
}
