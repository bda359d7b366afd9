package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p, v  float64
		label string
	}{
		{1000, 99, 990, "p99 keeps exactly ten beyond"},
		{999, 98, 980, "one short of p99"},
		{200, 95, 190, "p95"},
		{100, 90, 90, "p90"},
		{40, 75, 30, "p75"},
		{12, 50, 6, "too few for any tail"},
	} {
		p, v := tailPercentile(ramp(tc.n))
		if p != tc.p || v != tc.v {
			t.Errorf("%s: n=%d gave p%v = %v, want p%v = %v", tc.label, tc.n, p, v, tc.p, tc.v)
		}
	}
	if p, v := tailPercentile(nil); p != 50 || v != 0 {
		t.Errorf("empty: got p%v = %v", p, v)
	}
}

func TestWindowMedian(t *testing.T) {
	if got := windowMedian([]int{30, 10, 20}, 2*time.Second); got != 10 {
		t.Errorf("odd windows: got %v, want 10", got)
	}
	if got := windowMedian([]int{10, 40, 20, 30}, time.Second); got != 25 {
		t.Errorf("even windows: got %v, want 25", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("got %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(id, parent string, from, to int) span {
		return span{id: id, parent: parent, start: t0.Add(time.Duration(from) * time.Millisecond),
			dur: time.Duration(to-from) * time.Millisecond}
	}
	spans := []span{
		at("root", "", 0, 100),
		at("a", "root", 10, 40), // nested: a holds g
		at("g", "a", 20, 30),
		at("b", "root", 30, 60),        // overlaps a by 10ms
		at("late", "root", 90, 120),    // runs past its parent: clipped
		at("lone", "gone", 0, 5),       // parent missing: a root of its own
		at("leaf", "", 200, 230),       // children missing: all self
		at("other", "missing", 50, 55), // unrelated orphan
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100*time.Millisecond - 60*time.Millisecond, // a∪b = 10..60, late = 90..100
		"a":    20 * time.Millisecond,
		"g":    10 * time.Millisecond,
		"b":    30 * time.Millisecond,
		"late": 30 * time.Millisecond,
		"lone": 5 * time.Millisecond,
		"leaf": 30 * time.Millisecond,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%s) = %v, want %v", id, got[id], w)
		}
	}
}

func TestInputsAreSeeded(t *testing.T) {
	if !reflect.DeepEqual(coldKeys(1), coldKeys(1)) || !reflect.DeepEqual(hotKeys(1), hotKeys(1)) {
		t.Fatal("key sequences differ for one seed")
	}
	if reflect.DeepEqual(coldKeys(1), coldKeys(2)) || reflect.DeepEqual(hotKeys(1), hotKeys(2)) {
		t.Fatal("key sequences equal across seeds")
	}
	if n := len(coldKeys(1)); n != 69 {
		t.Errorf("cold-datasets has %d keys, want 69", n)
	}
	if n := len(hotKeys(1)); n != 108 {
		t.Errorf("hot-repeat has %d keys, want 108", n)
	}
	z1, z1b, z2 := newZipf(1, 108, 1.1), newZipf(1, 108, 1.1), newZipf(2, 108, 1.1)
	same, differ := true, false
	for i := 0; i < 1000; i++ {
		same = same && z1.rank(i) == z1b.rank(i)
		differ = differ || z1.rank(i) != z2.rank(i)
	}
	if !same || !differ {
		t.Errorf("zipf ranks: same seed identical %v, different seeds differ %v", same, differ)
	}
	seen := map[uint64]bool{}
	for cycle := 0; cycle < 100; cycle++ {
		for id := 0; id < 128; id++ {
			s := taskSeed(cycle, id)
			if s == 0 || seen[s] {
				t.Fatalf("task seed %d for cycle %d, input %d collides or is the server's default", s, cycle, id)
			}
			seen[s] = true
		}
	}
	// The upload catalogs are fixed; the seed orders them.
	a, err := uploadSpecs()[0].render()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := uploadSpecs()[0].render(); !bytes.Equal(a, b) {
		t.Error("upload catalog not deterministic")
	}
	b1 := &batchTraffic{env: &env{seed: 1}, specs: batchSpecs()}
	b1b := &batchTraffic{env: &env{seed: 1}, specs: batchSpecs()}
	b2 := &batchTraffic{env: &env{seed: 2}, specs: batchSpecs()}
	for _, b := range []*batchTraffic{b1, b1b, b2} {
		if err := b.setup(nil); err != nil {
			t.Fatal(err)
		}
	}
	// Compare the jobs' items: the multipart boundary is random framing.
	if !reflect.DeepEqual(b1.items(0), b1b.items(0)) || reflect.DeepEqual(b1.items(0), b2.items(0)) {
		t.Error("batch jobs not a function of the seed")
	}
}

func TestPlanInterleavesClassesAndPairsWorkloads(t *testing.T) {
	// Two classes of three bodies: {0, 1, 2} and {3, 4, 5}.
	classes := classesBy(6, func(b int) int { return b / 3 })
	p := newPlan(7, 1, classes)
	if len(p.order) != 6 || p.group != 2 {
		t.Fatalf("plan %+v: want 6 positions in groups of 2", p)
	}
	for pos, b := range p.order {
		if b/3 != pos%2 {
			t.Errorf("position %d holds body %d of class %d, want class %d", pos, b, b/3, pos%2)
		}
	}
	// Over each pair of cycles every body is asked once under each
	// workload, with seeds that do not depend on the run seed.
	tasks := func(p plan, pair int) map[string]bool {
		out := map[string]bool{}
		for seq := pair * 12; seq < (pair+1)*12; seq++ {
			b, wl, seed := p.at(seq)
			out[fmt.Sprint(b, wl, seed)] = true
		}
		return out
	}
	other := newPlan(8, 1, classesBy(6, func(b int) int { return b / 3 }))
	if reflect.DeepEqual(p.order, other.order) {
		t.Error("run seeds 7 and 8 give the same order")
	}
	for pair := 0; pair < 2; pair++ {
		got := tasks(p, pair)
		if len(got) != 12 {
			t.Errorf("cycle pair %d: %d distinct tasks, want 12 (6 bodies × 2 workloads)", pair, len(got))
		}
		if !reflect.DeepEqual(got, tasks(other, pair)) {
			t.Errorf("cycle pair %d: the task set depends on the run seed", pair)
		}
	}
	if reflect.DeepEqual(tasks(p, 0), tasks(p, 1)) {
		t.Error("consecutive cycle pairs repeat their seeds")
	}
}

func TestCheckerRejectsOneGridStep(t *testing.T) {
	m, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassPowerLaw, Rows: 800, NNZ: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"cc", "spmm"} {
		w, err := buildScalar(wl, "check", m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceScalar(w, wl, 11)
		if err != nil {
			t.Fatal(err)
		}
		c, err := exhaustive(w)
		if err != nil {
			t.Fatal(err)
		}
		at, err := c.timeAt(ref.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		good := answer{workload: wl, seed: 11, threshold: ref.Threshold, evals: ref.Evals, runNS: int64(at)}
		if err := checkScalar(&good, ref); err != nil {
			t.Fatalf("%s: exact answer rejected: %v", wl, err)
		}
		if err := checkRunTime(&good, c); err != nil {
			t.Fatalf("%s: exact run time rejected: %v", wl, err)
		}
		bad := good
		bad.threshold += 1
		if checkScalar(&bad, ref) == nil {
			t.Errorf("%s: threshold one grid step off accepted", wl)
		}
		fewer := good
		fewer.evals--
		if checkScalar(&fewer, ref) == nil {
			t.Errorf("%s: evaluation count off by one accepted", wl)
		}
	}
	part := answer{partition: core.Partition{50, 30, 20}, evals: 9}
	ref := &core.PartitionEstimate{Partition: core.Partition{50, 30, 20}, Evals: 9}
	if err := checkPartition(&part, ref); err != nil {
		t.Fatalf("exact partition rejected: %v", err)
	}
	part.partition = core.Partition{51, 29, 20}
	if checkPartition(&part, ref) == nil {
		t.Error("partition one grid step off accepted")
	}
}

// TestSmoke runs every workload end to end for one 1-second window, in
// both modes, and checks it answers correctly and prints exactly the
// metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the whole cluster; skipped under -short")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	o := options{seed: 5, seconds: 1, warmup: 0.5, windows: 1, clients: 2, setups: 1, runs: 1, workdir: t.TempDir()}
	if err := validate(&o); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		o.trace = trace
		results, err := runAll(o, workloadNames)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d failed", r.name, trace, r.failed, r.attempted)
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", r.name, trace, len(r.metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", r.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
