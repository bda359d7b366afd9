package serve

import (
	"fmt"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/hetsim"
)

// asPartition decodes the "partition" (or similar) field of a JSON
// response into a core.Partition.
func asPartition(t *testing.T, out map[string]any, field string) core.Partition {
	t.Helper()
	raw, ok := out[field].([]any)
	if !ok {
		t.Fatalf("%s = %v (%T), want array", field, out[field], out[field])
	}
	p := make(core.Partition, len(raw))
	for i, v := range raw {
		p[i] = v.(float64)
	}
	return p
}

// TestEstimatePartitionEndpoint — ?devices=3 returns a valid 3-share
// partition plus the NaiveStatic baseline vector, and the answer is
// cached under a devices-aware key.
func TestEstimatePartitionEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 8})
	for _, workload := range []string{"cc", "spmm"} {
		q := fmt.Sprintf("/estimate?workload=%s&dataset=cant&devices=3&repeats=1&seed=3", workload)
		out := getJSON(t, ts.URL+q, 200)
		if got := out["devices"].(float64); got != 3 {
			t.Errorf("%s: devices = %v, want 3", workload, got)
		}
		p := asPartition(t, out, "partition")
		if err := p.Validate(); err != nil {
			t.Errorf("%s: partition %v invalid: %v", workload, p, err)
		}
		static := asPartition(t, out, "naive_static_partition")
		if err := static.Validate(); err != nil {
			t.Errorf("%s: naive static %v invalid: %v", workload, static, err)
		}
		if out["evals"].(float64) <= 0 {
			t.Errorf("%s: no evals reported", workload)
		}
		// Same query again: cache hit, identical partition.
		again := getJSON(t, ts.URL+q, 200)
		if again["cached"] != true {
			t.Errorf("%s: second request not cached", workload)
		}
		if got := asPartition(t, again, "partition"); got.String() != p.String() {
			t.Errorf("%s: cached partition %v, want %v", workload, got, p)
		}
	}
}

// TestEstimatePartitionTwoDeviceParity — ?devices=2 runs the pair
// platform's workload through its partition interface and must agree
// with the scalar threshold answer: partition[0] == threshold, same
// evals and run time. The partition is the sample partition (identity
// extrapolation): at an even repeat count share 1 is the median of the
// samples' share 1, which can differ from 100 - threshold in the last
// digit (the spmm case).
func TestEstimatePartitionTwoDeviceParity(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 8})
	for _, base := range []string{
		"/estimate?workload=cc&dataset=qcd5_4&repeats=2&seed=11",
		"/estimate?workload=spmm&dataset=web-BerkStan&repeats=2&seed=1",
	} {
		scalar := getJSON(t, ts.URL+base, 200)
		vector := getJSON(t, ts.URL+base+"&devices=2", 200)
		p := asPartition(t, vector, "partition")
		if len(p) != 2 {
			t.Fatalf("%s: partition = %v, want 2 shares", base, p)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: partition %v invalid: %v", base, p, err)
		}
		if sp := asPartition(t, vector, "sample_partition"); len(sp) != 2 || sp[0] != p[0] || sp[1] != p[1] {
			t.Errorf("%s: partition = %v, want the sample partition %v", base, p, sp)
		}
		if p[0] != scalar["threshold"].(float64) {
			t.Errorf("%s: partition[0] = %v, want scalar threshold %v", base, p[0], scalar["threshold"])
		}
		if vector["evals"].(float64) != scalar["evals"].(float64) {
			t.Errorf("%s: evals = %v, want scalar %v", base, vector["evals"], scalar["evals"])
		}
		if vector["run_time_simulated_ns"].(float64) != scalar["run_time_simulated_ns"].(float64) {
			t.Errorf("%s: run time %v, want scalar %v", base, vector["run_time_simulated_ns"], scalar["run_time_simulated_ns"])
		}
		// The scalar request must not have been served from the vector
		// request's cache entry or vice versa (distinct keys).
		if scalar["cached"] == true || vector["cached"] == true {
			t.Errorf("%s: scalar and vector requests shared a cache entry", base)
		}
	}
}

// TestEstimatePartitionUpload — POST bodies work with ?devices= too,
// and answer with the default cascade's NaiveStatic vector.
func TestEstimatePartitionUpload(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 8})
	mtx := genMTX(t, 600, 4000, 21)
	out := postMTX(t, ts.URL+"/estimate?workload=spmm&devices=4&repeats=1", mtx, 200)
	p := asPartition(t, out, "partition")
	if len(p) != 4 {
		t.Fatalf("partition = %v, want 4 shares", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("partition %v invalid: %v", p, err)
	}
	static := asPartition(t, out, "naive_static_partition")
	if want := core.Partition(hetsim.DefaultMulti(3).StaticShares()); static.String() != want.String() {
		t.Errorf("naive static = %v, want the 4-device cascade's %v", static, want)
	}
}

// TestEstimatePartitionRejections — malformed or unsupported ?devices=
// values are structured 400s.
func TestEstimatePartitionRejections(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 8})
	for _, tc := range []struct {
		q    string
		want int
	}{
		{"workload=cc&dataset=cant&devices=1", 400},
		{"workload=cc&dataset=cant&devices=9", 400},
		{"workload=cc&dataset=cant&devices=x", 400},
		{"workload=scalefree&dataset=cant&devices=3", 400},
	} {
		out := getJSON(t, ts.URL+"/estimate?"+tc.q, tc.want)
		if out["error"] == nil {
			t.Errorf("%s: no error body", tc.q)
		}
	}
}

// TestPartitionSearchCost — the admission estimate scales with the
// axis count for N ≥ 3 and collapses to the scalar cost at N=2.
func TestPartitionSearchCost(t *testing.T) {
	s := core.CoarseToFine{}
	scalar := searchCost(s, 3)
	if got := partitionSearchCost(s, 3, 2); got != scalar {
		t.Errorf("N=2 cost %d, want scalar %d", got, scalar)
	}
	three := partitionSearchCost(s, 3, 3)
	if three != scalar*2*simplexCostRounds {
		t.Errorf("N=3 cost %d, want %d", three, scalar*2*simplexCostRounds)
	}
	if four := partitionSearchCost(s, 3, 4); four <= three {
		t.Errorf("N=4 cost %d not above N=3 cost %d", four, three)
	}
}

// TestPartitionQueryCanonical sanity-checks that devices participates
// in the URL query (the gateway's flight key canonicalizes the full
// query, so two requests differing only in devices never coalesce).
func TestPartitionQueryCanonical(t *testing.T) {
	q1, _ := url.ParseQuery("workload=cc&dataset=cant&devices=3")
	q2, _ := url.ParseQuery("workload=cc&dataset=cant")
	if q1.Encode() == q2.Encode() {
		t.Fatal("devices dropped from canonical query")
	}
}

// TestAdmissionCosts pins the admission cost of each served searcher
// cold and at three devices.
func TestAdmissionCosts(t *testing.T) {
	for _, tc := range []struct {
		searcher       string
		one, three, d3 int64
	}{
		{"exhaustive", 101, 303, 1818},
		{"coarse-to-fine", 30, 90, 540},
		{"race", 10, 30, 180},
		{"gradient", 16, 48, 288},
	} {
		s, err := searcherFor(WorkloadSpMM, tc.searcher)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]int64{
			partitionSearchCost(s, 1, 0), partitionSearchCost(s, 3, 0),
			partitionSearchCost(s, 3, 3),
		}
		if want := [3]int64{tc.one, tc.three, tc.d3}; got != want {
			t.Errorf("%s: costs (repeats 1, repeats 3, devices=3) = %v, want %v", tc.searcher, got, want)
		}
	}
}
