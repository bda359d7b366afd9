package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/hetsim"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/store"
)

// storeServer builds a Server with the given threshold store attached
// and returns both the Server (for metrics/store introspection) and
// its test listener.
func storeServer(t *testing.T, st *store.Store, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Store = st
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postMTXResp posts a MatrixMarket body and returns the decoded JSON
// plus the response headers.
func postMTXResp(t *testing.T, url string, body []byte) (map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d\n%s", url, resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	return out, resp.Header
}

// estimateURL is the upload endpoint all store tests use: exhaustive
// search with one repeat makes evaluation counts exact (101 sweep + 1
// final = 102 cold; 17-point warm window + 1 final = 18 warm; 3 for a
// verified probe).
const estimateURL = "/estimate?workload=spmm&searcher=exhaustive&repeats=1"

// TestStoreWarmTransferCutsEvals — the tentpole's core promise: a
// structurally similar input warm-starts the Identify sweep, spending
// over 5x fewer threshold evaluations than a cold search while landing
// on a result of equal quality.
func TestStoreWarmTransferCutsEvals(t *testing.T) {
	a := genMTX(t, 3000, 30000, 3)
	b := genMTX(t, 3000, 30000, 4) // distinct fingerprint, same structure

	// Cold baseline for b on a store-less server.
	coldSrv := New(Config{Logger: testLogger(t)})
	coldTS := httptest.NewServer(coldSrv.Handler())
	defer coldTS.Close()
	coldResp := postMTX(t, coldTS.URL+estimateURL, b, http.StatusOK)
	coldEvals := coldSrv.Metrics().EvalsTotal()
	coldRT := coldResp["run_time_simulated_ns"].(float64)

	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := storeServer(t, st, Config{})

	// First input: cold search, but its result seeds the store.
	respA, _ := postMTXResp(t, ts.URL+estimateURL, a)
	if respA["store_hit"] != nil {
		t.Errorf("first request reported store_hit = %v", respA["store_hit"])
	}
	if respA["features"] == "" || respA["features"] == nil {
		t.Error("first request missing features")
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries after first estimate, want 1", st.Len())
	}

	warmBase := s.Metrics().EvalsTotal()
	respB, hdr := postMTXResp(t, ts.URL+estimateURL, b)
	warmEvals := s.Metrics().EvalsTotal() - warmBase

	if respB["store_hit"] != true || respB["store_warm_started"] != true {
		t.Errorf("second request: store_hit=%v warm_started=%v, want both true", respB["store_hit"], respB["store_warm_started"])
	}
	if got := hdr.Get(StoreHeader); got != "warm" {
		t.Errorf("%s = %q, want \"warm\"", StoreHeader, got)
	}
	if respB["store_neighbor"] != batch.InputKey("", a) {
		t.Errorf("store_neighbor = %v, want a's key", respB["store_neighbor"])
	}
	if coldEvals < 5*warmEvals {
		t.Errorf("warm evals %d not 5x below cold %d", warmEvals, coldEvals)
	}
	warmRT := respB["run_time_simulated_ns"].(float64)
	if math.Abs(warmRT-coldRT) > 0.05*coldRT {
		t.Errorf("warm run time %v strays more than 5%% from cold %v", warmRT, coldRT)
	}

	// The warm search settled in the window's interior, which counts as
	// a successful transfer for a's entry.
	e, ok := st.Get(WorkloadSpMM, batch.InputKey("", a))
	if !ok {
		t.Fatal("a's entry vanished")
	}
	if e.Confidence <= 0.5 {
		t.Errorf("neighbor confidence = %v, want a boost above the initial 0.5", e.Confidence)
	}
	hits, warms, _, _, _, _ := s.Metrics().StoreCounts()
	if hits != 1 || warms != 1 {
		t.Errorf("store counters hits=%d warms=%d, want 1/1", hits, warms)
	}
}

// TestStoreReplaysPreSHAKeys replays a threshold-store log written
// when upload keys were FNV-1a hashes: one entry for the upload a,
// keyed by FNV-1a over a's bytes. Keys changed to SHA-256, so the entry
// no longer names any input, but lookup goes by features, and it must
// still warm-start a structurally similar upload.
func TestStoreReplaysPreSHAKeys(t *testing.T) {
	raw, err := os.ReadFile("testdata/store_fnv_keys.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	a := genMTX(t, 3000, 30000, 3)
	h := fnv.New64a()
	h.Write(a)
	oldKey := fmt.Sprintf("upload:%016x", h.Sum64())
	if _, ok := st.Get(WorkloadSpMM, oldKey); !ok || st.Len() != 1 {
		t.Fatalf("log replayed %d entries, want the one keyed %s", st.Len(), oldKey)
	}
	if oldKey == batch.InputKey("", a) {
		t.Fatalf("a's key %s did not change", oldKey)
	}

	_, ts := storeServer(t, st, Config{})
	resp, hdr := postMTXResp(t, ts.URL+estimateURL, genMTX(t, 3000, 30000, 4))
	if resp["store_neighbor"] != oldKey || hdr.Get(StoreHeader) != "warm" {
		t.Errorf("store_neighbor = %v, %s = %q; want %s, \"warm\"",
			resp["store_neighbor"], StoreHeader, hdr.Get(StoreHeader), oldKey)
	}
}

// TestStoreSkipVerifiedTransfer — with the skip gate below the initial
// confidence, a transferable neighbor skips Identify entirely: three
// probe evaluations replace the whole sweep, and the answer still
// matches a cold search within the verification tolerance.
func TestStoreSkipVerifiedTransfer(t *testing.T) {
	a := genMTX(t, 3000, 30000, 7)
	b := genMTX(t, 3000, 30000, 8)

	coldSrv := New(Config{Logger: testLogger(t)})
	coldTS := httptest.NewServer(coldSrv.Handler())
	defer coldTS.Close()
	coldResp := postMTX(t, coldTS.URL+estimateURL, b, http.StatusOK)
	coldRT := coldResp["run_time_simulated_ns"].(float64)

	st, err := store.Open(store.Config{SkipConfidence: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := storeServer(t, st, Config{})
	postMTX(t, ts.URL+estimateURL, a, http.StatusOK)

	base := s.Metrics().EvalsTotal()
	respB, hdr := postMTXResp(t, ts.URL+estimateURL, b)
	probeEvals := s.Metrics().EvalsTotal() - base

	if respB["store_transferred"] != true {
		t.Fatalf("store_transferred = %v, want true", respB["store_transferred"])
	}
	if got := hdr.Get(StoreHeader); got != "skip" {
		t.Errorf("%s = %q, want \"skip\"", StoreHeader, got)
	}
	if probeEvals != 3 {
		t.Errorf("probe spent %d evaluations, want 3", probeEvals)
	}
	skipRT := respB["run_time_simulated_ns"].(float64)
	if math.Abs(skipRT-coldRT) > 0.05*coldRT {
		t.Errorf("transferred run time %v strays more than 5%% from cold %v", skipRT, coldRT)
	}
	_, _, skips, probes, rejects, _ := s.Metrics().StoreCounts()
	if skips != 1 || probes != 1 || rejects != 0 {
		t.Errorf("store counters skips=%d probes=%d rejects=%d, want 1/1/0", skips, probes, rejects)
	}
	// The verified result was recorded under b's own key and cached.
	if st.Len() != 2 {
		t.Errorf("store holds %d entries, want 2", st.Len())
	}
	again := postMTX(t, ts.URL+estimateURL, b, http.StatusOK)
	if again["cached"] != true {
		t.Error("repeat of a transferred answer missed the result cache")
	}
}

// TestStoreProbeRejectFallsBackAndDecays — a poisoned entry (bad
// threshold, structurally matching features) fails its verification
// probe, falls back to a warm search and loses confidence. The entry
// keeps its threshold: nothing re-estimates it behind the answer.
func TestStoreProbeRejectFallsBackAndDecays(t *testing.T) {
	b := genMTX(t, 3000, 30000, 5)
	m, err := sparse.Generate(sparse.GenConfig{
		Class: sparse.ClassPowerLaw, Rows: 3000, NNZ: 30000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := store.FromCSR(m)

	// Zero probe tolerance: any slope at the transferred threshold
	// rejects, and 90 sits far up the CPU-heavy slope.
	st, err := store.Open(store.Config{
		SkipConfidence: 0.45,
		ProbeTolerance: 1e-9,
		Radius:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const poisonKey = "dataset:qcd5_4"
	st.Put(WorkloadSpMM, poisonKey, hetsim.Default().Signature(), f, 90, 1)

	s, ts := storeServer(t, st, Config{})
	resp, hdr := postMTXResp(t, ts.URL+estimateURL, b)
	if resp["store_transferred"] == true {
		t.Fatal("poisoned transfer passed its probe")
	}
	if resp["store_hit"] != true || resp["store_warm_started"] != true {
		t.Errorf("reject should fall back to warm: hit=%v warm=%v", resp["store_hit"], resp["store_warm_started"])
	}
	if got := hdr.Get(StoreHeader); got != "warm" {
		t.Errorf("%s = %q, want \"warm\"", StoreHeader, got)
	}
	_, _, skips, probes, rejects, _ := s.Metrics().StoreCounts()
	if probes != 1 || rejects != 1 || skips != 0 {
		t.Errorf("store counters probes=%d rejects=%d skips=%d, want 1/1/0", probes, rejects, skips)
	}

	// The reject halved the neighbor's confidence, and the warm
	// search's outcome moved it again; its threshold is untouched.
	e, ok := st.Get(WorkloadSpMM, poisonKey)
	if !ok {
		t.Fatal("poisoned entry vanished")
	}
	if e.Threshold != 90 || e.Confidence >= 0.5 {
		t.Errorf("poisoned entry = threshold %v confidence %v, want 90 and below 0.5", e.Threshold, e.Confidence)
	}
}

// overloadAnswer is one response of storeMissesUnderOverload.
type overloadAnswer struct {
	code     int
	degraded bool
	took     time.Duration
}

// storeMissesUnderOverload posts four distinct uploads at once to a
// store-enabled server with one worker, an admission limit of 200 and
// a wait stack of one, while every admission unit is held, and returns
// each answer. A miss is admitted before it takes the worker, so the
// stack bounds the misses: one waits out its 2 s timeout and the rest
// are shed as they arrive.
func storeMissesUnderOverload(t *testing.T, degrade bool) []overloadAnswer {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := storeServer(t, st, Config{
		Workers:        1,
		AdmissionLimit: 200,
		AdmissionQueue: 1,
		DegradeOnShed:  degrade,
	})
	if err := s.Admission().Acquire(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	defer s.Admission().Release(200)

	answers := make([]overloadAnswer, 4)
	var wg sync.WaitGroup
	for i := range answers {
		body := genMTX(t, 400, 2000, uint64(20+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			r, err := http.Post(ts.URL+estimateURL+"&timeout=2s", "text/plain", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			answers[i] = overloadAnswer{r.StatusCode, r.Header.Get(DegradedHeader) != "", time.Since(start)}
		}()
	}
	wg.Wait()
	return answers
}

// TestStoreMissShedsUnderOverload — the store does not switch shedding
// off: with every admission unit held, at least three of four
// concurrent store-enabled misses are answered 429 within a second
// instead of queueing for the worker until their deadline.
func TestStoreMissShedsUnderOverload(t *testing.T) {
	answers := storeMissesUnderOverload(t, false)
	shed := 0
	for _, a := range answers {
		if a.code == http.StatusTooManyRequests && a.took < time.Second {
			shed++
		}
	}
	if shed < 3 {
		t.Errorf("%d of 4 misses shed within 1s, want at least 3: %+v", shed, answers)
	}
}

// TestStoreMissDegradesUnderOverload — with DegradeOnShed the same
// shed misses are answered 200, marked degraded, within a second.
func TestStoreMissDegradesUnderOverload(t *testing.T) {
	answers := storeMissesUnderOverload(t, true)
	degraded := 0
	for _, a := range answers {
		if a.code == http.StatusOK && a.degraded && a.took < time.Second {
			degraded++
		}
	}
	if degraded < 3 {
		t.Errorf("%d of 4 misses degraded within 1s, want at least 3: %+v", degraded, answers)
	}
}

// TestStoreIgnoresClientFeatures — a client cannot choose the
// features the server stores or answers with: an upload sent with
// another input's features in an X-Het-Features header is answered,
// and recorded in the store, under the features of its own body, and
// the response carries no features header.
func TestStoreIgnoresClientFeatures(t *testing.T) {
	a := genMTX(t, 3000, 30000, 10)
	b := genMTX(t, 3000, 30000, 11)
	coo, err := mmio.ReadStructure(bytes.NewReader(b), DefaultMaxUpload)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	wantB := store.FromCSR(mb).String()

	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := storeServer(t, st, Config{})
	respA, _ := postMTXResp(t, ts.URL+estimateURL, a)
	if respA["features"] == wantB {
		t.Fatal("a and b share features; the test cannot tell them apart")
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+estimateURL, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Het-Features", respA["features"].(string))
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("POST with a features header = %d\n%s", r.StatusCode, raw)
	}
	var respB map[string]any
	if err := json.Unmarshal(raw, &respB); err != nil {
		t.Fatal(err)
	}
	if respB["features"] != wantB {
		t.Errorf("response features = %v, want b's own %s", respB["features"], wantB)
	}
	e, ok := st.Get(WorkloadSpMM, batch.InputKey("", b))
	if !ok {
		t.Fatal("b has no store entry")
	}
	if got := e.Features.String(); got != wantB {
		t.Errorf("stored features for b = %s, want b's own %s", got, wantB)
	}
	if h := r.Header.Get("X-Het-Features"); h != "" {
		t.Errorf("response carries X-Het-Features = %q, want none", h)
	}
}

// TestStoreMetricsEndpoint — the hetserve_store_* series render at
// /metrics, including the entries gauge.
func TestStoreMetricsEndpoint(t *testing.T) {
	a := genMTX(t, 3000, 30000, 11)
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := storeServer(t, st, Config{})
	postMTX(t, ts.URL+estimateURL, a, http.StatusOK)

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{
		"hetserve_store_hits_total 0",
		"hetserve_store_warm_starts_total 0",
		"hetserve_store_skips_total 0",
		"hetserve_store_probes_total 0",
		"hetserve_store_rejects_total 0",
		"hetserve_store_entries 1",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
