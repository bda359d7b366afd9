package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mmio"
	"repro/internal/sparse"
)

// genMTX serializes a synthetic power-law matrix as a MatrixMarket
// body, the shape an uploading client would send.
func genMTX(t *testing.T, rows, nnz int, seed uint64) []byte {
	t.Helper()
	m, err := sparse.Generate(sparse.GenConfig{
		Class: sparse.ClassPowerLaw,
		Rows:  rows,
		NNZ:   nnz,
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmio.Write(&buf, m.ToCOO()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// testLogger routes slog output through t.Logf so failures carry the
// server's structured log lines.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func getJSON(t *testing.T, url string, want int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s = %d, want %d\n%s", url, resp.StatusCode, want, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON from %s: %v\n%s", url, err, body)
	}
	return out
}

func postMTX(t *testing.T, url string, body []byte, want int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s = %d, want %d\n%s", url, resp.StatusCode, want, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON from %s: %v\n%s", url, err, raw)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestEstimateUploadAndCache(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	mtx := genMTX(t, 400, 4000, 7)
	url := ts.URL + "/estimate?workload=spmm&seed=5&repeats=2"

	first := postMTX(t, url, mtx, 200)
	thr := first["threshold"].(float64)
	if thr < 0 || thr > 100 {
		t.Errorf("threshold = %v out of [0,100]", thr)
	}
	if first["cached"].(bool) {
		t.Error("first request reported cached")
	}
	if first["overhead_simulated_ns"].(float64) <= 0 {
		t.Error("no overhead accounting")
	}
	if first["evals"].(float64) <= 0 {
		t.Error("no evals reported")
	}

	second := postMTX(t, url, mtx, 200)
	if !second["cached"].(bool) {
		t.Error("identical repeat not served from cache")
	}
	if second["threshold"].(float64) != thr {
		t.Errorf("cached threshold %v != %v", second["threshold"], thr)
	}

	// A different seed is a different cache key.
	third := postMTX(t, ts.URL+"/estimate?workload=spmm&seed=6&repeats=2", mtx, 200)
	if third["cached"].(bool) {
		t.Error("different seed hit the cache")
	}

	// The cache traffic is visible in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"hetserve_cache_hits_total 1",
		"hetserve_cache_misses_total 2",
		`hetserve_requests_total{workload="spmm",code="200"} 3`,
		"hetserve_in_flight_requests 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q\n%s", want, metrics)
		}
	}
}

func TestEstimateNamedDataset(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	out := getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&seed=3&repeats=1", 200)
	if out["input"].(string) != "cant" {
		t.Errorf("input = %v", out["input"])
	}
	thr := out["threshold"].(float64)
	if thr < 0 || thr > 100 {
		t.Errorf("threshold = %v", thr)
	}
	if out["searcher"].(string) != "race-then-fine" {
		t.Errorf("spmm default searcher = %v", out["searcher"])
	}

	// Identical GET: cache hit.
	again := getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&seed=3&repeats=1", 200)
	if !again["cached"].(bool) {
		t.Error("repeat GET not cached")
	}
}

func TestEstimateErrors(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, CacheSize: 4})

	getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=no_such_matrix", 404)
	getJSON(t, ts.URL+"/estimate?workload=warp&dataset=cant", 400)
	getJSON(t, ts.URL+"/estimate?workload=spmm", 400)                               // no dataset, no body
	getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&searcher=quantum", 400) // unknown searcher
	getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&timeout=yesterday", 400)
	postMTX(t, ts.URL+"/estimate?workload=spmm", []byte("this is not a matrix"), 400)
}

func TestEstimateUploadTooLarge(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, CacheSize: 4, MaxUploadBytes: 512})
	mtx := genMTX(t, 200, 2000, 9) // well over 512 bytes
	postMTX(t, ts.URL+"/estimate?workload=spmm", mtx, http.StatusRequestEntityTooLarge)
}

// TestEstimateHugeDeclaredSizesAre400s: a few dozen bytes declaring
// billions of entries (or 2^63-1 array columns) are malformed uploads.
// The first used to allocate straight from the header and kill the
// process with a fatal out-of-memory error no handler can recover; the
// second spun a worker forever. Both now answer 400, and the daemon
// keeps serving.
func TestEstimateHugeDeclaredSizesAre400s(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, CacheSize: 4})
	for _, body := range []string{
		"%%MatrixMarket matrix coordinate real general\n10 10 4000000000\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real symmetric\n10 10 4611686018427387904\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n0 9223372036854775807\n",
	} {
		out := postMTX(t, ts.URL+"/estimate?workload=spmm", []byte(body), http.StatusBadRequest)
		t.Logf("%q: %v", body, out["error"])
	}
	postMTX(t, ts.URL+"/estimate?workload=spmm&repeats=1", genMTX(t, 200, 2000, 9), http.StatusOK)
}

func TestEstimateTimeoutCancelsCleanly(t *testing.T) {
	srv := New(Config{Workers: 2, CacheSize: 4, Logger: testLogger(t)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// A body large enough that parse + profile + search cannot finish
	// inside 1ms on any hardware we run on.
	mtx := genMTX(t, 20000, 120000, 11)
	resp, err := http.Post(ts.URL+"/estimate?workload=spmm&timeout=1ms", "text/plain", bytes.NewReader(mtx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504\n%s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "deadline") {
		t.Errorf("error body does not mention the deadline: %s", raw)
	}

	// No slot or gauge leak: everything is released once the handler
	// returns.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Pool().InUse() != 0 || srv.Metrics().inFlight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d slots, %d in flight", srv.Pool().InUse(), srv.Metrics().inFlight.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The same input without the timeout succeeds (the failure was the
	// deadline, not the matrix), and the cancelled run was not cached.
	ok := postMTX(t, ts.URL+"/estimate?workload=spmm", mtx, 200)
	if ok["cached"].(bool) {
		t.Error("cancelled run left a cache entry")
	}
}

// TestEstimateCoalescesConcurrentIdenticalRequests is the regression
// test for serve-side singleflight: before it, two identical
// concurrent POSTs both ran the full Sample → Identify → Extrapolate
// pipeline because the LRU only helps after the first completes.
func TestEstimateCoalescesConcurrentIdenticalRequests(t *testing.T) {
	srv := New(Config{Workers: 4, CacheSize: 8, Logger: testLogger(t)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// A workload slow enough that concurrent posts overlap the leader's
	// pipeline run.
	mtx := genMTX(t, 20000, 120000, 13)
	const callers = 6
	var wg sync.WaitGroup
	results := make([]map[string]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postMTX(t, ts.URL+"/estimate?workload=spmm&repeats=1", mtx, 200)
		}(i)
	}
	wg.Wait()

	// However the arrivals interleaved, the pipeline ran exactly once;
	// every other caller was coalesced mid-flight or served from the
	// cache just after.
	hits, misses, coalesced := srv.Metrics().CacheCounts()
	if misses != 1 {
		t.Errorf("pipeline ran %d times for %d identical requests, want 1", misses, callers)
	}
	if hits+coalesced != callers-1 {
		t.Errorf("hits %d + coalesced %d != %d followers", hits, coalesced, callers-1)
	}
	thr := results[0]["threshold"].(float64)
	for i, r := range results {
		if r["threshold"].(float64) != thr {
			t.Errorf("caller %d: threshold %v != %v", i, r["threshold"], thr)
		}
		cached, _ := r["cached"].(bool)
		co, _ := r["coalesced"].(bool)
		if cached && co {
			t.Errorf("caller %d reports both cached and coalesced", i)
		}
	}

	// The coalesce and eviction counters are visible at /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"hetserve_coalesced_total",
		"hetserve_cache_evictions_total 0",
		"hetserve_cache_entries 1",
		"hetserve_cache_misses_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q\n%s", want, metrics)
		}
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 15 {
		t.Errorf("datasets = %d, want 15", len(out))
	}
	found := false
	for _, d := range out {
		if d["name"] == "cant" {
			found = true
		}
	}
	if !found {
		t.Error("cant missing from /datasets")
	}
}

func TestEstimateCCUpload(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, CacheSize: 4})
	mtx := genMTX(t, 300, 1800, 21)
	out := postMTX(t, ts.URL+"/estimate?workload=cc&repeats=1", mtx, 200)
	if !strings.HasPrefix(out["input"].(string), "upload:") {
		t.Errorf("input = %v", out["input"])
	}
	if out["searcher"].(string) != fmt.Sprintf("coarse-to-fine(%g→%g)", 8.0, 1.0) {
		t.Errorf("cc default searcher = %v", out["searcher"])
	}
}

func TestEstimateScaleFreeUpload(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, CacheSize: 4})
	mtx := genMTX(t, 300, 3000, 33)
	out := postMTX(t, ts.URL+"/estimate?workload=scalefree&repeats=1", mtx, 200)
	if out["searcher"].(string) != "gradient-descent" {
		t.Errorf("scalefree default searcher = %v", out["searcher"])
	}
}

// TestReadBody pins the shared body reader: an exact-size buffer
// whatever Content-Length says, and the MaxBytesReader 413 trip
// whatever the header says.
func TestReadBody(t *testing.T) {
	const limit = 100
	body := strings.Repeat("x", 60)
	cases := []struct {
		name     string
		body     string
		declared int64 // Content-Length; -1 unknown
		want     string
		tooLarge bool
	}{
		{"declared", body, 60, body, false},
		{"unknown length", body, -1, body, false},
		{"empty", "", 0, "", false},
		{"header under-states the body", body, 10, body, false},
		{"header over-states the body", body, 90, body, false},
		{"header beyond the limit", strings.Repeat("x", 150), 150, "", true},
		{"body beyond a small header", strings.Repeat("x", 150), 10, "", true},
		{"exactly the limit", strings.Repeat("x", limit), limit, strings.Repeat("x", limit), false},
		{"unknown length beyond the limit", strings.Repeat("x", 150), -1, "", true},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(c.body))
		r.ContentLength = c.declared
		got, err := ReadBody(httptest.NewRecorder(), r, limit)
		var mbe *http.MaxBytesError
		if c.tooLarge {
			if !errors.As(err, &mbe) {
				t.Errorf("%s: error %v, want *http.MaxBytesError", c.name, err)
			}
			continue
		}
		if err != nil || string(got) != c.want || got == nil {
			t.Errorf("%s: got %d bytes (nil %v), %v; want %d bytes", c.name, len(got), got == nil, err, len(c.want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: cap %d for a %d-byte body, want an exact-size buffer", c.name, cap(got), len(got))
		}
	}

	// Bodies past one pooled chunk end in an exact-size buffer too,
	// declared or not, and a header that over-states the body by 61 MiB
	// changes nothing.
	big := strings.Repeat("y", 3<<20+5)
	for _, declared := range []int64{int64(len(big)), -1} {
		r := httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(big))
		r.ContentLength = declared
		got, err := ReadBody(httptest.NewRecorder(), r, 64<<20)
		if err != nil || string(got) != big || cap(got) != len(big) {
			t.Errorf("3 MiB body declaring %d: got %d bytes (cap %d), %v", declared, len(got), cap(got), err)
		}
	}
	three := strings.Repeat("z", 3<<20)
	r := httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(three))
	r.ContentLength = 64 << 20
	got, err := ReadBody(httptest.NewRecorder(), r, 64<<20)
	if err != nil || string(got) != three || cap(got) != len(three) {
		t.Errorf("3 MiB body declaring 64 MiB: got %d bytes (cap %d), %v", len(got), cap(got), err)
	}
}

// TestReadBodyDeclaredSizeNotReserved: a client that declares the
// whole limit in Content-Length and sends a few bytes (or stalls) must
// not make the daemon reserve the limit up front; the buffer stays in
// proportion to the bytes received.
func TestReadBodyDeclaredSizeNotReserved(t *testing.T) {
	const limit = 64 << 20
	r := httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader("%%MatrixMarket"))
	r.ContentLength = limit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadBody(httptest.NewRecorder(), r, limit)
	runtime.ReadMemStats(&after)
	if err != nil || string(got) != "%%MatrixMarket" {
		t.Fatalf("got %q, %v", got, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 2<<20 {
		t.Errorf("a 14-byte body declaring %d bytes allocated %d bytes, want <= 2 MiB", limit, d)
	}
}

// FuzzReadBody holds ReadBody to its contract for any body, declared
// length and limit: the body itself, in an exact-size buffer, when it
// fits the limit, and *http.MaxBytesError when it does not.
func FuzzReadBody(f *testing.F) {
	f.Add([]byte("%%MatrixMarket"), int64(14), int64(14))
	f.Add([]byte("%%MatrixMarket"), int64(-1), int64(13))
	f.Add([]byte(""), int64(0), int64(1))
	f.Add([]byte("abc"), int64(64<<20), int64(64<<20))
	f.Add(bytes.Repeat([]byte("x"), 300), int64(2), int64(299))
	f.Fuzz(func(t *testing.T, body []byte, declared, limit int64) {
		// Map the limit onto 1..len+16 so limits at, just under and
		// just over the body length all come up.
		limit = 1 + int64(uint64(limit)%uint64(len(body)+16))
		r := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
		r.ContentLength = declared
		got, err := ReadBody(httptest.NewRecorder(), r, limit)
		if int64(len(body)) > limit {
			var mbe *http.MaxBytesError
			if !errors.As(err, &mbe) {
				t.Fatalf("%d-byte body, limit %d: error %v, want *http.MaxBytesError", len(body), limit, err)
			}
			return
		}
		if err != nil || !bytes.Equal(got, body) || got == nil || cap(got) != len(got) {
			t.Fatalf("%d-byte body, limit %d: got %d bytes (cap %d, nil %v), %v", len(body), limit, len(got), cap(got), got == nil, err)
		}
	})
}
