package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/mmio"
	"repro/internal/store"
)

func TestRunSingleDataset(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, dir, "qcd5_4", "", 0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	coo, err := mmio.ReadFile(filepath.Join(dir, "qcd5_4.mtx"))
	if err != nil {
		t.Fatal(err)
	}
	if coo.Rows == 0 || coo.NNZ() == 0 {
		t.Fatalf("empty matrix written: %dx%d/%d", coo.Rows, coo.Cols, coo.NNZ())
	}
}

func TestRunCustomClass(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "custom.mtx")
	if err := run(io.Discard, path, "", "powerlaw", 500, 5000, 7, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	// Directory targets get a generated name.
	if err := run(io.Discard, dir, "", "road", 400, 800, 7, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "road_400.mtx")); err != nil {
		t.Fatal(err)
	}
}

func TestRunFeatures(t *testing.T) {
	// -features prints the vector store.Features.String renders and
	// writes no files.
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, dir, "qcd5_4", "", 0, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	name, wire, ok := strings.Cut(line, "\t")
	if !ok || name != "qcd5_4" {
		t.Fatalf("features line = %q, want name<TAB>vector", line)
	}
	d, err := datasets.ByName("qcd5_4")
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if want := store.FromCSR(m).String(); wire != want {
		t.Errorf("printed vector = %s, want %s", wire, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "qcd5_4.mtx")); !os.IsNotExist(err) {
		t.Error("-features wrote a matrix file")
	}

	// Custom-class mode prints one line too.
	buf.Reset()
	if err := run(&buf, dir, "", "powerlaw", 500, 5000, 7, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "powerlaw\t") {
		t.Errorf("custom features line = %q", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, t.TempDir(), "nonexistent", "", 0, 0, 0, false); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run(io.Discard, t.TempDir(), "", "banana", 10, 10, 1, false); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := parseClass("fem"); err != nil {
		t.Error(err)
	}
}
