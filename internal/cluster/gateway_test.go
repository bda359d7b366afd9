package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/mmio"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// testLogger routes slog output through t.Logf so failures carry the
// gateway's structured log lines.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

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

// startCluster launches k embedded hetserve backends plus a gateway
// (with its health prober running) fronting them.
func startCluster(t *testing.T, k int, mut func(*Config)) (*Embedded, *Gateway, *httptest.Server) {
	t.Helper()
	e, err := StartEmbedded(k, serve.Config{Workers: 4, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	cfg := Config{
		Backends:         e.URLs(),
		HealthInterval:   50 * time.Millisecond,
		HealthTimeout:    500 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
		MaxAttempts:      4,
		RetryBase:        10 * time.Millisecond,
		RetryMax:         50 * time.Millisecond,
		Logger:           testLogger(t),
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); g.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return e, g, ts
}

type gwResponse struct {
	status    int
	backend   string
	coalesced bool // gateway-side
	body      map[string]any
}

func postEstimate(t *testing.T, base string, query string, mtx []byte) gwResponse {
	t.Helper()
	resp, err := http.Post(base+"/estimate?"+query, "text/plain", bytes.NewReader(mtx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := gwResponse{
		status:    resp.StatusCode,
		backend:   resp.Header.Get("X-Hetgate-Backend"),
		coalesced: resp.Header.Get("X-Hetgate-Coalesced") == "true",
	}
	if err := json.Unmarshal(raw, &out.body); err != nil {
		t.Fatalf("bad JSON (status %d): %v\n%s", resp.StatusCode, err, raw)
	}
	return out
}

func TestGatewayShardsByFingerprintWithCacheLocality(t *testing.T) {
	_, g, ts := startCluster(t, 3, nil)

	// Ring placement depends on the backends' (random) loopback ports,
	// so a fixed set of uploads all share one owner now and then. Take
	// uploads in seed order, as many past six as it needs for their
	// ring owners to span two replicas.
	owners := make(map[string]bool)
	for s := uint64(100); s < 106 || len(owners) < 2; s++ {
		if s == 164 {
			t.Fatalf("64 distinct uploads all owned by %v; sharding suspect", owners)
		}
		mtx := genMTX(t, 300, 2400, s)
		owner, ok := g.ring.Pick(batch.InputKey("", mtx))
		if !ok {
			t.Fatal("empty ring")
		}
		owners[owner] = true

		first := postEstimate(t, ts.URL, "workload=spmm&repeats=1", mtx)
		if first.status != 200 {
			t.Fatalf("upload %d: status %d: %v", s, first.status, first.body)
		}
		if first.backend != owner {
			t.Errorf("upload %d answered by %q, its ring owner is %s", s, first.backend, owner)
		}

		// The repeat must land on the same replica and hit its LRU —
		// that is the cache locality consistent hashing buys.
		second := postEstimate(t, ts.URL, "workload=spmm&repeats=1", mtx)
		if second.backend != owner {
			t.Errorf("upload %d repeat answered by %q, its ring owner is %s", s, second.backend, owner)
		}
		if cached, _ := second.body["cached"].(bool); !cached {
			t.Errorf("upload %d repeat was not served from the owner's cache", s)
		}
		if second.body["threshold"] != first.body["threshold"] {
			t.Errorf("upload %d: threshold drifted %v → %v", s, first.body["threshold"], second.body["threshold"])
		}
	}
}

func TestGatewayCoalescesIdenticalConcurrentRequests(t *testing.T) {
	e, g, ts := startCluster(t, 3, nil)

	// Large enough that the pipeline takes real time, so concurrent
	// identical posts overlap the leader's upstream call.
	mtx := genMTX(t, 20000, 120000, 5)
	const callers = 6
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := postEstimate(t, ts.URL, "workload=spmm&repeats=1", mtx)
			if out.status != 200 {
				t.Errorf("status %d: %v", out.status, out.body)
			}
			if out.coalesced {
				coalesced.Add(1)
			}
		}()
	}
	wg.Wait()

	// However the requests interleaved (gateway singleflight, backend
	// singleflight, or backend LRU), the pipeline must have run once.
	var misses uint64
	for i := 0; i < 3; i++ {
		_, m, _ := e.Server(i).Metrics().CacheCounts()
		misses += m
	}
	if misses != 1 {
		t.Errorf("backend pipeline ran %d times for one input, want 1", misses)
	}
	_, _, gwCoalesced := g.Metrics().Counts()
	if int64(gwCoalesced) != coalesced.Load() {
		t.Errorf("gateway metrics report %d coalesced, headers reported %d", gwCoalesced, coalesced.Load())
	}
}

// TestGatewayFailover is the acceptance scenario: 3 backends, one dies
// mid-run; its breaker opens, its key range remaps to live replicas,
// and once the remap settles no request fails.
func TestGatewayFailover(t *testing.T) {
	e, g, ts := startCluster(t, 3, nil)

	// Warm up: 8 distinct inputs, note who owns each.
	const inputs = 8
	bodies := make([][]byte, inputs)
	owner := make([]string, inputs)
	for i := range bodies {
		bodies[i] = genMTX(t, 300, 2400, uint64(200+i))
		out := postEstimate(t, ts.URL, "workload=spmm&repeats=1", bodies[i])
		if out.status != 200 {
			t.Fatalf("warmup %d: status %d: %v", i, out.status, out.body)
		}
		owner[i] = out.backend
	}

	// Kill the replica that owns input 0 — guaranteed to own part of
	// the key range we keep requesting.
	victim := owner[0]
	victimIdx := -1
	for i, u := range e.URLs() {
		if u == victim {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("victim %s not among embedded URLs %v", victim, e.URLs())
	}
	e.Stop(victimIdx)

	// Keep traffic flowing while the gateway notices. Requests during
	// this window may be served after internal retries; none should
	// surface an error to the client (dial failures are retried on the
	// next replica within the same request).
	deadline := time.Now().Add(5 * time.Second)
	for g.BreakerStates()[victim] != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker for dead backend never opened; states: %v", g.BreakerStates())
		}
		out := postEstimate(t, ts.URL, "workload=spmm&repeats=1", bodies[0])
		if out.status != 200 {
			t.Errorf("request during failover: status %d: %v", out.status, out.body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Settled: every key — including the dead replica's former range —
	// is served by live backends with zero failures.
	for round := 0; round < 2; round++ {
		for i, body := range bodies {
			out := postEstimate(t, ts.URL, "workload=spmm&repeats=1", body)
			if out.status != 200 {
				t.Errorf("post-remap input %d: status %d: %v", i, out.status, out.body)
			}
			if out.backend == victim {
				t.Errorf("post-remap input %d still served by dead backend %s", i, victim)
			}
		}
	}
	if got := g.BreakerStates()[victim]; got == BreakerClosed {
		t.Errorf("dead backend's breaker closed again: %v", got)
	}

	// The gateway itself stays healthy with 2/3 replicas.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("gateway /healthz = %d with live replicas remaining", resp.StatusCode)
	}
}

// fakeBackend is a scriptable upstream for forwarding/retry tests.
type fakeBackend struct {
	ts    *httptest.Server
	delay atomic.Int64 // nanoseconds before answering /estimate
	fail  atomic.Bool  // answer /estimate with HTTP 500
	hits  atomic.Int64
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		f.hits.Add(1)
		if d := time.Duration(f.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		if f.fail.Load() {
			http.Error(w, "synthetic backend failure", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"threshold": 50, "input": "fake"}`)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func newFakeGateway(t *testing.T, mut func(*Config), fakes ...*fakeBackend) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		urls[i] = f.ts.URL
	}
	cfg := Config{
		Backends:         urls,
		HealthInterval:   time.Hour, // prober idle; tests drive traffic directly
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		MaxAttempts:      3,
		RetryBase:        time.Millisecond,
		RetryMax:         5 * time.Millisecond,
		Logger:           testLogger(t),
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header
}

// TestGatewayForwardsSlowRequestOnce — an estimate is deterministic, so
// a slow answer is waited for, never duplicated: two replicas that each
// take 400 ms see exactly one upstream request between them under the
// default Config.
func TestGatewayForwardsSlowRequestOnce(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	for _, f := range []*fakeBackend{a, b} {
		f.delay.Store(int64(400 * time.Millisecond))
	}
	g, err := New(Config{Backends: []string{a.ts.URL, b.ts.URL}, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	code, body, _ := getBody(t, ts.URL+"/estimate?dataset=cant")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if hits := a.hits.Load() + b.hits.Load(); hits != 1 {
		t.Errorf("backends saw %d requests for one slow estimate, want 1", hits)
	}
}

// TestGatewayRoutesDevicesByParsedCount — ?devices spellings hetserve
// parses to one count share one routing key, so they land on the shard
// whose cache holds that count; a value that does not parse is keyed
// raw and still forwarded (the backend answers it 400).
func TestGatewayRoutesDevicesByParsedCount(t *testing.T) {
	g, ts := newFakeGateway(t, nil, newFakeBackend(t), newFakeBackend(t), newFakeBackend(t))
	input := batch.InputKey("cant", nil)
	for _, tc := range []struct{ devices, key string }{
		{"", input},
		{"2", input + "|devices=2"},
		{"02", input + "|devices=2"},
		{"+2", input + "|devices=2"},
		{"3", input + "|devices=3"},
		{"003", input + "|devices=3"},
		{"two", input + "|devices=two"},
		{"2.0", input + "|devices=2.0"},
	} {
		q := url.Values{"dataset": {"cant"}}
		if tc.devices != "" {
			q.Set("devices", tc.devices)
		}
		if got := routingKey(q, nil); got != tc.key {
			t.Errorf("devices=%q: routing key %q, want %q", tc.devices, got, tc.key)
		}
		want, _ := g.ring.Pick(tc.key)
		code, body, hdr := getBody(t, ts.URL+"/estimate?"+q.Encode())
		if code != 200 {
			t.Fatalf("devices=%q: status %d: %s", tc.devices, code, body)
		}
		if got := hdr.Get("X-Hetgate-Backend"); got != want {
			t.Errorf("devices=%q: forwarded to %s, ring places %q on %s", tc.devices, got, tc.key, want)
		}
	}
}

func TestGatewayRetriesAfter5xxAndTripsBreaker(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	g, ts := newFakeGateway(t, nil, a, b)

	owner, _ := g.ring.Pick("dataset:cant")
	byURL := map[string]*fakeBackend{a.ts.URL: a, b.ts.URL: b}
	byURL[owner].fail.Store(true)

	code, body, hdr := getBody(t, ts.URL+"/estimate?dataset=cant")
	if code != 200 {
		t.Fatalf("status %d after retry: %s", code, body)
	}
	if got := hdr.Get("X-Hetgate-Backend"); got == owner {
		t.Errorf("answer attributed to the failing owner %s", got)
	}
	retries, _, _ := g.Metrics().Counts()
	if retries != 1 {
		t.Errorf("retries = %d, want 1", retries)
	}
	if got := g.BreakerStates()[owner]; got != BreakerOpen {
		t.Errorf("failing owner's breaker = %v, want open (threshold 1)", got)
	}

	// With the breaker open the next request goes straight to the
	// healthy replica: no new retry rounds.
	code, body, _ = getBody(t, ts.URL+"/estimate?dataset=cant")
	if code != 200 {
		t.Fatalf("status %d with open breaker: %s", code, body)
	}
	if r2, _, _ := g.Metrics().Counts(); r2 != retries {
		t.Errorf("open breaker still cost retry rounds: %d → %d", retries, r2)
	}
}

func TestGatewayClientErrorsPassThroughWithoutRetry(t *testing.T) {
	_, g, ts := startCluster(t, 2, nil)

	code, body, _ := getBody(t, ts.URL+"/estimate?workload=spmm&dataset=no_such_matrix")
	if code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 passed through\n%s", code, body)
	}
	retries, _, _ := g.Metrics().Counts()
	if retries != 0 {
		t.Errorf("a 4xx cost %d retry rounds, want 0", retries)
	}
	for b, s := range g.BreakerStates() {
		if s != BreakerClosed {
			t.Errorf("breaker for %s = %v after a client error, want closed", b, s)
		}
	}
}

func TestGatewayDatasetsProxyAndMetrics(t *testing.T) {
	_, _, ts := startCluster(t, 2, nil)

	code, body, _ := getBody(t, ts.URL+"/datasets")
	if code != 200 || !strings.Contains(body, "cant") {
		t.Errorf("/datasets = %d\n%s", code, body)
	}

	// Generate a little traffic, then scrape.
	mtx := genMTX(t, 300, 2400, 77)
	postEstimate(t, ts.URL, "workload=spmm&repeats=1", mtx)
	postEstimate(t, ts.URL, "workload=spmm&repeats=1", mtx)

	code, metrics, _ := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"hetgate_upstream_requests_total{backend=",
		"hetgate_breaker_state{backend=",
		"hetgate_retries_total 0",
		"hetgate_upstream_duration_seconds_bucket",
		"hetgate_health_probes_total{backend=",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
