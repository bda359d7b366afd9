package repro

// Allocation regression tests for the evaluation hot path. The
// Identify stage's parallel speedup depends on grid-point evaluations
// staying off the heap: per-evaluation allocation serializes workers
// on the allocator and GC, which is how the PR-4 engine ended up
// slower in parallel than sequential on the old single-core baseline.
// These tests pin the steady-state allocation counts so a regression
// shows up as a test failure, not as a silently flat speedup curve.

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// evalWorkloads builds one workload per case study on a full Table II
// replica, the same inputs the search benchmark sweeps.
func evalWorkloads(t testing.TB) map[string]core.Workload {
	t.Helper()
	platform := hetsim.Default()
	ws := map[string]core.Workload{}

	d, err := datasets.ByName("germany_osm")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ws["cc"] = hetcc.NewWorkload("germany_osm", g, hetcc.NewAlgorithm(platform))

	d, err = datasets.ByName("cant")
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	spmm, err := hetspmm.NewWorkload("cant", m, hetspmm.NewAlgorithm(platform))
	if err != nil {
		t.Fatal(err)
	}
	ws["spmm"] = spmm

	d, err = datasets.ByName("web-BerkStan")
	if err != nil {
		t.Fatal(err)
	}
	m, err = d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	scale, err := hetscale.NewWorkload("web-BerkStan", m, hetscale.NewAlgorithm(platform))
	if err != nil {
		t.Fatal(err)
	}
	ws["scale"] = scale
	return ws
}

// TestEvaluateAllocsPinned pins the per-grid-point allocation count of
// every workload's Evaluate. cc was the offender: before the scratch
// arenas it allocated ~200k times per evaluation (edge-list partition,
// FromEdges rebuilds, per-call label/union-find state); it now runs
// out of a pooled split-index scratch. cc3 is the same runner at three
// devices through EvaluatePartition, which rebuilt every device's
// subgraph until the two runners merged. spmm3 is the SpMM cost model
// at three devices, which keeps its row cuts on the stack. The pins
// leave a little headroom for sync.Pool refills after a GC, nothing
// more.
func TestEvaluateAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	limits := map[string]float64{"cc": 4, "cc3": 4, "spmm": 1, "spmm3": 1, "scale": 1}
	ws := evalWorkloads(t)
	evals := map[string]func() error{}
	for name, w := range ws {
		evals[name] = func() error { _, err := w.Evaluate(37); return err }
	}
	g := ws["cc"].(*hetcc.Workload).Graph()
	mw := hetcc.NewMultiWorkload("germany_osm", g, hetcc.NewMultiAlgorithm(hetsim.DefaultMulti(2)))
	evals["cc3"] = func() error { _, err := mw.EvaluatePartition(core.Partition{40, 30, 30}); return err }
	m := ws["spmm"].(*hetspmm.Workload).Matrix()
	sw, err := hetspmm.NewMultiWorkload("cant", m, hetspmm.NewMultiAlgorithm(hetsim.DefaultMulti(2)))
	if err != nil {
		t.Fatal(err)
	}
	evals["spmm3"] = func() error { _, err := sw.EvaluatePartition(core.Partition{40, 30, 30}); return err }
	for name, eval := range evals {
		if err := eval(); err != nil { // warm the scratch pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := eval(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limits[name] {
			t.Errorf("%s: %v allocs per evaluation, want <= %v", name, allocs, limits[name])
		}
	}
}

// TestNewProfileAllocsPinned pins an SpMM profile build, which every
// upload and every sample pays, to its three kept objects: the
// profile and its two prefix arrays, each filled in place. The build
// it replaced also allocated a load vector it dropped after the prefix
// sum and grew the output counts into a second array.
func TestNewProfileAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	m := evalWorkloads(t)["spmm"].(*hetspmm.Workload).Matrix()
	build := func() {
		if _, err := hetspmm.NewProfile(m, m); err != nil {
			t.Fatal(err)
		}
	}
	build() // B's row index and the accumulator pool
	if allocs := testing.AllocsPerRun(20, build); allocs > 3 {
		t.Errorf("NewProfile on cant: %v allocs, want <= 3", allocs)
	}
}

// TestSearchEngineAllocsPinned pins the engine's own overhead: a whole
// search — tracker, memo, grid, parallel fan-out, commit — on an
// allocation-free workload must cost only a handful of allocations,
// sequentially and at parallelism 8. Before the persistent pool and
// the recycled tracker/arena buffers this was 29 allocations for a
// 9-evaluation race-then-fine window and 38 for an exhaustive sweep at
// parallelism 8.
func TestSearchEngineAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	w := evalWorkloads(t)["spmm"]
	cases := []struct {
		name     string
		searcher core.Searcher
		par      int
		limit    float64
	}{
		{"exhaustive/p1", core.Exhaustive{}, 1, 6},
		{"exhaustive/p8", core.Exhaustive{}, 8, 10},
		{"race-then-fine/p1", &core.RaceThenFine{Window: 4}, 1, 6},
		{"race-then-fine/p8", &core.RaceThenFine{Window: 4}, 8, 10},
	}
	for _, c := range cases {
		ctx := core.WithParallelism(context.Background(), c.par)
		if _, err := c.searcher.Search(ctx, w, 0, 100); err != nil { // warm pools & pool workers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.searcher.Search(ctx, w, 0, 100); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.limit {
			t.Errorf("%s: %v allocs per search, want <= %v", c.name, allocs, c.limit)
		}
	}
}

// realGeneralBody serializes a synthetic power-law matrix with nnz
// entries as a real-general MatrixMarket body, the shape uploads take.
func realGeneralBody(t testing.TB, rows, nnz int, seed uint64) []byte {
	t.Helper()
	m, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassPowerLaw, Rows: rows, NNZ: nnz, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmio.Write(&buf, m.ToCOO()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMMIOReadAllocsPinned pins upload parsing to a constant number of
// allocations whatever the entry count: the line reader and coordinate
// scanner work in place, so only the reader, header, size line and the
// entry slices allocate — three for ReadLimited, two for ReadStructure,
// which keeps no values. The string-line parser it replaced made two
// allocations per entry (ReadString and strings.Fields).
func TestMMIOReadAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	const limit = 24
	for _, read := range []struct {
		name string
		fn   func(io.Reader, int64) (*mmio.COO, error)
	}{{"ReadLimited", mmio.ReadLimited}, {"ReadStructure", mmio.ReadStructure}} {
		var counts []float64
		for _, nnz := range []int{2000, 20000} {
			body := realGeneralBody(t, nnz/10, nnz, 5)
			allocs := testing.AllocsPerRun(10, func() {
				c, err := read.fn(bytes.NewReader(body), 64<<20)
				if err != nil || c.NNZ() == 0 {
					t.Fatal(c, err)
				}
				if structure := read.name == "ReadStructure"; structure != (c.Vals == nil) {
					t.Fatalf("%s: %d values kept", read.name, len(c.Vals))
				}
			})
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] || counts[0] > limit {
			t.Errorf("%s allocs at 2k / 20k entries = %v, want the same count <= %d", read.name, counts, limit)
		}
	}
}

// TestStructureIngestAllocsPinned pins the bytes an uploaded CC graph
// costs to build: structure read, CSR build and graph build of a fixed
// 20k-entry body. The structure-only path allocates 541 kB; the
// valued parse, valued CSR and edge-list graph build it replaced took
// 1.39 MB, the CSR build's two row-pointer scratch arrays, which
// row-major triplets no longer need, another 33 kB (656 kB), and the
// copy of the column array the CSR now adopts from the COO another
// 4 bytes an entry (623 kB). The bound leaves a little headroom over
// the former, so neither value arrays, an edge list, the sort's
// scratch nor the column copy can creep back in.
func TestStructureIngestAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	const limitBytes = 560_000
	body := realGeneralBody(t, 2000, 20000, 5)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		c, err := mmio.ReadStructure(bytes.NewReader(body), 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sparse.FromCOO(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graph.FromCSR(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRun > limitBytes {
		t.Errorf("structure ingest of 20k entries allocated %d bytes, want <= %d", perRun, limitBytes)
	}
}

// TestEncodeRequestAllocBytesPinned pins the batch request encoder to
// about one copy of its upload bodies: the multipart buffer is sized
// from the parts up front and returned without a final copy. The
// strings.Builder it replaced grew by doubling and then copied the
// whole body once more.
func TestEncodeRequestAllocBytesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	items := make([]batch.Item, 8)
	total := 0
	for k := range items {
		b := realGeneralBody(t, 400, 4000+500*k, uint64(k))
		items[k] = batch.Item{Name: "i" + strconv.Itoa(k), Workload: "spmm", Body: b}
		total += len(b)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, err := batch.EncodeRequest(items); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.05*float64(total) + 16<<10; perRun > limit {
		t.Errorf("EncodeRequest allocated %.0f bytes for %d body bytes, want <= %.0f", perRun, total, limit)
	}
}

// bytesPerRun returns the bytes fn allocates per call over runs calls,
// after one call that warms any pools.
func bytesPerRun(t *testing.T, runs int, fn func()) float64 {
	t.Helper()
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadBodyAllocBytesPinned pins the upload body reader both daemons
// share to about one copy of the body, whether or not Content-Length
// is sent: it reads through pooled fixed-size chunks and copies the
// bytes once into an exact-size buffer. The doubling buffer it
// replaced allocated about 2.1 times a 6 MiB body.
func TestReadBodyAllocBytesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	body := bytes.Repeat([]byte("12 345 0.6789\n"), 6<<20/14)
	for _, declared := range []int64{int64(len(body)), -1} {
		perRun := bytesPerRun(t, 10, func() {
			r := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
			r.ContentLength = declared
			got, err := serve.ReadBody(httptest.NewRecorder(), r, serve.DefaultMaxUpload)
			if err != nil || len(got) != len(body) {
				t.Fatal(len(got), err)
			}
		})
		if limit := 1.05*float64(len(body)) + 16<<10; perRun > limit {
			t.Errorf("ReadBody (Content-Length %d) allocated %.0f bytes for a %d-byte body, want <= %.0f", declared, perRun, len(body), limit)
		}
	}
}

// TestParseRequestAllocBytesPinned pins the batch job parser to about
// one copy of its upload parts: each part is read through the same
// pooled chunks as a single upload and copied once. The parser it
// replaced read every part into one growing bytes.Buffer and then
// copied it out.
func TestParseRequestAllocBytesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	items := make([]batch.Item, 8)
	total := 0
	for k := range items {
		b := realGeneralBody(t, 400, 4000+500*k, uint64(k))
		items[k] = batch.Item{Name: "i" + strconv.Itoa(k), Workload: "spmm", Body: b}
		total += len(b)
	}
	body, contentType, err := batch.EncodeRequest(items)
	if err != nil {
		t.Fatal(err)
	}
	perRun := bytesPerRun(t, 10, func() {
		r := httptest.NewRequest(http.MethodPost, "/estimate-batch", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		job, err := batch.ParseRequest(r, 0, serve.DefaultMaxUpload)
		if err != nil || len(job.Items) != len(items) {
			t.Fatal(job, err)
		}
	})
	if limit := 1.05*float64(total) + 16<<10; perRun > limit {
		t.Errorf("ParseRequest allocated %.0f bytes for %d body bytes, want <= %.0f", perRun, total, limit)
	}
}

// TestMetricsRecordAllocsPinned pins the per-event cost of the metric
// recording paths every answer passes through. A labeled series is
// looked up without building its key on the heap, so the one
// allocation left on the request and upstream paths is the status
// code's label string. The hand-formatted registries this replaced
// allocated 2, 2, 1 and 0 times.
func TestMetricsRecordAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	sm := serve.NewMetrics()
	gm := cluster.NewMetrics()
	const backend = "http://127.0.0.1:45678"
	for _, tc := range []struct {
		name   string
		limit  float64
		record func()
	}{
		{"serve RequestStarted+done", 1, func() { sm.RequestStarted(serve.WorkloadCC)(200, time.Millisecond) }},
		{"serve CacheHits", 0, func() { sm.CacheHits.Inc() }},
		{"gateway Upstream", 1, func() { gm.Upstream(backend, 200, time.Millisecond) }},
		{"gateway StoreTransfers", 0, func() { gm.StoreTransfers.With(backend, "skip").Inc() }},
	} {
		tc.record() // create the series
		if allocs := testing.AllocsPerRun(100, tc.record); allocs > tc.limit {
			t.Errorf("%s: %v allocs per event, want <= %v", tc.name, allocs, tc.limit)
		}
	}
}

// TestInputKeyAllocsPinned pins an upload's input key to one
// allocation, the key string itself: the digest and its hex are
// written into a fixed buffer. The FNV-1a key it replaced took two,
// one for fmt.Sprintf and one for the concatenation.
func TestInputKeyAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	body := realGeneralBody(t, 200, 2000, 5)
	if allocs := testing.AllocsPerRun(100, func() { batch.InputKey("", body) }); allocs != 1 {
		t.Errorf("InputKey on an upload: %v allocs, want 1", allocs)
	}
}

// TestDevicePlatformAllocsPinned pins the per-request cost of the
// device inventory: a cached devices=3 or 4 answer allocates no more
// than a cached devices=2 one, which runs on the server's device pair.
// Each resolves, looks up and encodes a partition of about the same
// length, so the difference is the inventory alone; the server builds
// each default cascade once. When resolve built the cascade on every
// request, devices=3 took 12 allocations more than devices=2 and
// devices=4 took 16.
func TestDevicePlatformAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	h := serve.New(serve.Config{Workers: 1, CacheSize: 16}).Handler()
	cached := func(devices int) float64 {
		url := "/estimate?workload=cc&dataset=cant&repeats=1&devices=" + strconv.Itoa(devices)
		get := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("devices=%d: %d %s", devices, rec.Code, rec.Body)
			}
		}
		get() // fill the result cache
		return testing.AllocsPerRun(50, get)
	}
	pair := cached(2)
	for _, devices := range []int{3, 4} {
		if got := cached(devices); got > pair {
			t.Errorf("cached devices=%d answer: %v allocs, want <= %v (devices=2)", devices, got, pair)
		}
	}
}

// TestSpanFinishAllocsPinned pins Finish of a span with attributes
// under a sink to no allocation: the sink keeps the finished span and
// renders its IDs and copies its attributes only when /debug/spans is
// read. Rendering at every Finish took 8 allocations.
func TestSpanFinishAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	const runs = 100
	sink := obs.NewSink(0, obs.NewRegistry().Stages("test_stage_seconds"))
	ctx := obs.WithScope(context.Background(), obs.Scope{Service: "test", Sink: sink})
	ctx, root := obs.StartSpan(ctx, "http.estimate")
	spans := make([]*obs.Span, runs+1) // AllocsPerRun adds one warm-up call
	for i := range spans {
		_, spans[i] = obs.StartSpan(ctx, "pipeline")
		spans[i].SetAttr("workload", "cc")
		spans[i].SetAttr("repeat", "0")
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		spans[next].Finish()
		next++
	})
	root.Finish()
	if allocs != 0 {
		t.Errorf("Finish: %v allocs per span, want 0", allocs)
	}
}

// csrBytes returns the bytes of m's three arrays.
func csrBytes(m *sparse.CSR) float64 {
	return float64(8*len(m.RowPtr) + 4*len(m.ColIdx) + 8*len(m.Vals))
}

// TestSampleAllocsPinned pins the Sample step of the SpMM and
// scale-free workloads to the size of the sample. Every draw runs
// through a pooled subset sampler and every sample CSR is built at
// exact size, so a sample costs its own CSR, its profile and a few
// small objects: at most 1.2 times the first two in bytes, and the
// measured count of allocations (16 on cant, 23 on web-BerkStan). The
// samplers this replaced allocated an 8n-byte identity permutation per
// draw, a 4n-byte column map and a doubling output, and a fresh draw
// for every scale-free row: 57 allocations and 648 kB per cant sample,
// 389 allocations and 39 kB per web-BerkStan sample.
func TestSampleAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	ws := evalWorkloads(t)
	spmm := ws["spmm"].(*hetspmm.Workload)
	scale := ws["scale"].(*hetscale.Workload)
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		allocs  float64
		sample  func() (*sparse.CSR, error)
		profile func(*sparse.CSR) error
	}{
		{"spmm/cant", 16, func() (*sparse.CSR, error) {
			sw, _, err := spmm.SamplePartition(ctx, xrand.New(7))
			if err != nil {
				return nil, err
			}
			return sw.(*hetspmm.Workload).Matrix(), nil
		}, func(m *sparse.CSR) error { _, err := hetspmm.NewProfile(m, m); return err }},
		{"scale/web-BerkStan", 23, func() (*sparse.CSR, error) {
			sw, _, err := scale.Sample(ctx, xrand.New(7))
			if err != nil {
				return nil, err
			}
			return sw.(*hetscale.Workload).Matrix(), nil
		}, func(m *sparse.CSR) error { _, err := hetscale.NewProfile(m); return err }},
	} {
		sub, err := c.sample() // also warms the sample pool
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := c.sample(); err != nil {
				t.Fatal(err)
			}
		}
		// The least of three rounds: a sync.Pool miss (after a GC, or
		// when the goroutine moved to another P between Get and Put)
		// refills the scratch now and then, while an allocation the
		// sampler makes on every call shows in every round.
		allocs, perRun := math.Inf(1), math.Inf(1)
		for range 3 {
			allocs = min(allocs, testing.AllocsPerRun(20, run))
			perRun = min(perRun, bytesPerRun(t, 20, run))
		}
		if allocs > c.allocs {
			t.Errorf("%s: %v allocs per sample, want <= %v", c.name, allocs, c.allocs)
		}
		profile := bytesPerRun(t, 20, func() {
			if err := c.profile(sub); err != nil {
				t.Fatal(err)
			}
		})
		if limit := 1.2 * (csrBytes(sub) + profile); perRun > limit {
			t.Errorf("%s: %.0f bytes per sample of %dx%d with %d entries, want <= %.0f", c.name, perRun, sub.Rows, sub.Cols, sub.NNZ(), limit)
		}
	}
}
