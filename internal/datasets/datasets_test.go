package datasets

import (
	"testing"

	"repro/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d datasets, Table II lists 15", len(all))
	}
	seen := map[string]bool{}
	for _, d := range all {
		if seen[d.Name] {
			t.Errorf("duplicate dataset %q", d.Name)
		}
		seen[d.Name] = true
		if d.Scale <= 0 {
			t.Errorf("%s: scale %d", d.Name, d.Scale)
		}
		if d.N() <= 0 || d.NNZ() <= 0 {
			t.Errorf("%s: scaled sizes %d/%d", d.Name, d.N(), d.NNZ())
		}
		if d.N() > 150000 || d.NNZ() > 600000 {
			t.Errorf("%s: scaled sizes %d/%d too large for sweeps", d.Name, d.N(), d.NNZ())
		}
	}
	for _, want := range []string{"cant", "web-BerkStan", "asia_osm", "delaunay_n22"} {
		if !seen[want] {
			t.Errorf("missing dataset %q", want)
		}
	}
}

func TestScaleFreeSetMatchesPaper(t *testing.T) {
	// Rows 1-11 of Table II excluding delaunay_n22 (4) and qcd5_4 (7):
	// 9 datasets.
	sf := ScaleFreeSet()
	if len(sf) != 9 {
		t.Fatalf("scale-free set has %d entries, want 9", len(sf))
	}
	for _, d := range sf {
		if d.Name == "delaunay_n22" || d.Name == "qcd5_4" {
			t.Errorf("%s must be excluded from the scale-free set", d.Name)
		}
		if d.Group == "road" {
			t.Errorf("road network %s in scale-free set", d.Name)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	if d.PaperN != 217918 {
		t.Errorf("pwtk paper n = %d", d.PaperN)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestMatrixGeneration(t *testing.T) {
	ResetCache()
	for _, name := range []string{"cant", "web-BerkStan", "asia_osm"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Rows != d.N() {
			t.Errorf("%s: rows %d, want %d", name, m.Rows, d.N())
		}
		// NNZ within 35% of the scaled target (generators are
		// approximate for some classes).
		ratio := float64(m.NNZ()) / float64(d.NNZ())
		if ratio < 0.5 || ratio > 1.6 {
			t.Errorf("%s: nnz %d vs target %d (ratio %.2f)", name, m.NNZ(), d.NNZ(), ratio)
		}
		// Cache must return the identical object.
		m2, err := d.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if m2 != m {
			t.Errorf("%s: cache miss on second call", name)
		}
		// The pattern shares the structure, keeps no values and is
		// cached too.
		p, err := d.Pattern()
		if err != nil {
			t.Fatal(err)
		}
		if p.Vals != nil || &p.RowPtr[0] != &m.RowPtr[0] || &p.ColIdx[0] != &m.ColIdx[0] || p.Rows != m.Rows || p.Cols != m.Cols {
			t.Errorf("%s: pattern is not a value-free view of the matrix", name)
		}
		if p2, _ := d.Pattern(); p2 != p {
			t.Errorf("%s: pattern cache miss on second call", name)
		}
	}
}

func TestGraphGeneration(t *testing.T) {
	ResetCache()
	for _, name := range []string{"netherlands_osm", "webbase-1M"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if g.N != d.N() {
			t.Errorf("%s: graph n = %d, want %d", name, g.N, d.N())
		}
		if g.Arcs() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
}

func TestClassStatisticsMatchGroups(t *testing.T) {
	ResetCache()
	// Web replicas must be skewed; road replicas near-regular.
	web, err := ByName("web-BerkStan")
	if err != nil {
		t.Fatal(err)
	}
	wm, err := web.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	road, err := ByName("italy_osm")
	if err != nil {
		t.Fatal(err)
	}
	rm, err := road.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	webCV := stats.CVInts(wm.RowNNZCounts())
	roadCV := stats.CVInts(rm.RowNNZCounts())
	if webCV < 2*roadCV {
		t.Errorf("web CV %.2f not clearly above road CV %.2f", webCV, roadCV)
	}
}
