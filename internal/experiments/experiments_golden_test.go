package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateExperiments = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current code")

// TestExperimentsGolden pins every figure and ablation that runs the
// estimate-and-compare procedure, exactly: each result struct is
// written with %+v (durations exact to the nanosecond, floats in their
// shortest round-tripping form), followed by the text Run renders for
// the same id, so the registry's adapters are pinned too.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten experiments twice")
	}
	o := Options{Seed: 42, Repeats: 3, Names: []string{"cant", "web-BerkStan"}}
	experiments := []struct {
		id  string
		run func(Options) (any, error)
	}{
		{"fig3", func(o Options) (any, error) { return Fig3(o) }},
		{"fig4", func(o Options) (any, error) { return Fig4(o) }},
		{"fig5", func(o Options) (any, error) { return Fig5(o) }},
		{"fig6", func(o Options) (any, error) { return Fig6(o) }},
		{"fig7", func(o Options) (any, error) { return Fig7(o) }},
		{"fig8", func(o Options) (any, error) { return Fig8(o) }},
		{"fig9", func(o Options) (any, error) { return Fig9(o) }},
		{"ablate-sampler", func(o Options) (any, error) { return AblationSampler(o) }},
		{"ablate-searcher", func(o Options) (any, error) { return AblationSearcher(o) }},
		{"ablate-platform", func(o Options) (any, error) { return AblationPlatform(o) }},
	}
	var b strings.Builder
	for _, e := range experiments {
		r, err := e.run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		fmt.Fprintf(&b, "==== %s ====\n%+v\n", e.id, r)
		if err := Run(e.id, o, &b); err != nil {
			t.Fatalf("Run(%s): %v", e.id, err)
		}
	}
	got := b.String()

	const path = "testdata/experiments.golden"
	if *updateExperiments {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("experiments differ from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("experiments differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
