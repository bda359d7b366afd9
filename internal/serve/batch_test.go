package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
)

// postBatch sends one batch job and incrementally decodes the event
// stream (NDJSON unless accept says otherwise).
func postBatch(t *testing.T, url, contentType, accept string, body []byte) (int, []batch.Event) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/estimate-batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept == "" {
		accept = "application/x-ndjson"
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, []batch.Event{{Type: batch.EventError, Error: string(raw)}}
	}
	var events []batch.Event
	if err := batch.ReadEvents(resp.Body, func(e batch.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatalf("reading events: %v", err)
	}
	return resp.StatusCode, events
}

// eventsByItem indexes a stream per item, preserving order.
func eventsByItem(events []batch.Event) (map[string][]batch.Event, *batch.Summary) {
	byItem := make(map[string][]batch.Event)
	var sum *batch.Summary
	for _, e := range events {
		if e.Type == batch.EventSummary {
			sum = e.Summary
			continue
		}
		byItem[e.Item] = append(byItem[e.Item], e)
	}
	return byItem, sum
}

func manifestBody(t *testing.T, items []batch.Item) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Items []batch.Item `json:"items"`
	}{items})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchOnePoolAdmissionSharedBuilds — the headline amortization
// contract: an N-item batch of known datasets takes exactly one worker
// slot, one aggregate admission, and builds each distinct dataset
// workload at most once, with coarse-then-refined events per item.
func TestBatchOnePoolAdmissionSharedBuilds(t *testing.T) {
	cfg := Config{Workers: 2, CacheSize: 64}
	cfg.Logger = testLogger(t)
	s := New(cfg)
	ts := newHTTPServer(t, s)

	items := []batch.Item{
		{Name: "a", Workload: "spmm", Dataset: "cant", Repeats: 1},
		{Name: "b", Workload: "spmm", Dataset: "cant", Seed: 7, Repeats: 1},
		{Name: "c", Workload: "spmm", Dataset: "cant", Seed: 9, Repeats: 1},
		{Name: "d", Workload: "spmm", Dataset: "cant", Seed: 11, Repeats: 1},
	}
	code, events := postBatch(t, ts.URL, "application/json", "", manifestBody(t, items))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %+v", code, events)
	}
	byItem, sum := eventsByItem(events)
	if sum == nil {
		t.Fatal("no summary trailer")
	}
	if sum.Items != 4 || sum.Completed != 4 || sum.Shed != 0 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Admissions != 1 {
		t.Errorf("summary admissions = %d, want 1", sum.Admissions)
	}
	// Four result-cache misses over one dataset: the build cache must
	// collapse them into a single construction.
	if sum.Builds != 1 {
		t.Errorf("summary builds = %d, want 1", sum.Builds)
	}
	if got := s.Pool().Acquires(); got != 1 {
		t.Errorf("pool acquisitions = %d, want exactly 1 for the whole batch", got)
	}
	for name, evs := range byItem {
		if len(evs) != 2 || evs[0].Type != batch.EventCoarse || evs[1].Type != batch.EventRefined {
			t.Errorf("item %q events = %+v, want coarse then refined", name, evs)
		}
		var est EstimateResponse
		if err := json.Unmarshal(evs[1].Estimate, &est); err != nil {
			t.Fatalf("item %q refined payload: %v", name, err)
		}
		if est.Threshold <= 0 {
			t.Errorf("item %q threshold = %v", name, est.Threshold)
		}
	}

	// Replay: every item is now a cache hit — refined events only, no
	// admission, no pool traffic.
	code, events = postBatch(t, ts.URL, "application/json", "", manifestBody(t, items))
	if code != http.StatusOK {
		t.Fatalf("replay status = %d", code)
	}
	_, sum = eventsByItem(events)
	if sum.Admissions != 0 || sum.Completed != 4 {
		t.Fatalf("replay summary = %+v, want 4 cached completions and 0 admissions", sum)
	}
	if got := s.Pool().Acquires(); got != 1 {
		t.Errorf("pool acquisitions after replay = %d, want still 1", got)
	}
	m := s.Metrics()
	if jobs, itemsTotal := m.BatchJobs.Value(), m.BatchItems.Value(); jobs != 2 || itemsTotal != 8 {
		t.Errorf("batch counts = %d jobs / %d items, want 2/8", jobs, itemsTotal)
	}
	if refined, cached := m.BatchOutcomes.With("refined").Value(), m.BatchOutcomes.With("cached").Value(); refined != 4 || cached != 4 {
		t.Errorf("outcomes = %d refined / %d cached, want 4/4", refined, cached)
	}
}

// TestBatchDeadlineCarving — per-item budget carving: one expensive
// item exhausts its slice of the job deadline and returns
// deadline_exceeded, while its cheap siblings complete within theirs.
// CI runs this under -race (Chaos suite: TestDeadline pattern).
func TestBatchDeadlineCarving(t *testing.T) {
	// Admission capacity far above the job's aggregate cost: this test
	// is about deadline carving, not shedding.
	cfg := Config{Workers: 2, CacheSize: 64, AdmissionLimit: 100000}
	cfg.Logger = testLogger(t)
	s := New(cfg)
	ts := newHTTPServer(t, s)

	// The slow item is a max-repeats exhaustive sweep over a big upload
	// (~1.5s of work on a dev box); the siblings race-search tiny
	// matrices in milliseconds. Fast items go first so the slow item
	// inherits the remaining budget as its carve — roughly the whole
	// job timeout — and still cannot finish inside it.
	slow := genMTX(t, 60000, 1200000, 1)
	fast1 := genMTX(t, 200, 800, 2)
	fast2 := genMTX(t, 200, 800, 3)
	items := []batch.Item{
		{Name: "f1", Workload: "spmm", Searcher: "race", Repeats: 1, Body: fast1},
		{Name: "f2", Workload: "spmm", Searcher: "race", Repeats: 1, Body: fast2},
		{Name: "slow", Workload: "spmm", Searcher: "exhaustive", Repeats: 99, Body: slow},
	}
	body, ct, err := batch.EncodeRequest(items)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/estimate-batch?timeout=300ms", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d\n%s", resp.StatusCode, raw)
	}
	var events []batch.Event
	if err := batch.ReadEvents(resp.Body, func(e batch.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	byItem, sum := eventsByItem(events)

	slowEvs := byItem["slow"]
	if len(slowEvs) == 0 {
		t.Fatal("no events for the slow item")
	}
	last := slowEvs[len(slowEvs)-1]
	if last.Type != batch.EventError || last.Code != batch.CodeDeadline {
		t.Fatalf("slow item terminal = %+v, want error/deadline_exceeded", last)
	}
	for _, name := range []string{"f1", "f2"} {
		evs := byItem[name]
		if len(evs) == 0 {
			t.Fatalf("no events for sibling %q", name)
		}
		term := evs[len(evs)-1]
		if term.Type != batch.EventRefined {
			t.Errorf("sibling %q terminal = %+v, want refined — one item's deadline must not starve its siblings", name, term)
		}
	}
	if sum == nil || sum.Completed != 2 || sum.Failed != 1 {
		t.Errorf("summary = %+v, want 2 completed / 1 failed", sum)
	}
	_, _, _, deadlines := s.Metrics().ResilienceCounts()
	if deadlines == 0 {
		t.Error("deadline_exceeded counter did not move")
	}
}

// TestBatchPartialAdmissionShedsTail — with admission capacity for only
// the head item, the tail is shed per item (LIFO-tail semantics) while
// the head still completes; the whole job is never 429'd.
func TestBatchPartialAdmissionShedsTail(t *testing.T) {
	cfg := Config{Workers: 2, CacheSize: 64}
	// race(repeats=1) costs 10; exhaustive(repeats=1) costs 101,
	// clamped to the limit 15 — so the head fits and the tail cannot.
	cfg.AdmissionLimit = 15
	cfg.AdmissionQueue = -1
	cfg.Logger = testLogger(t)
	s := New(cfg)
	ts := newHTTPServer(t, s)

	items := []batch.Item{
		{Name: "head", Workload: "spmm", Dataset: "cant", Searcher: "race", Repeats: 1},
		{Name: "tail", Workload: "spmm", Dataset: "cant", Searcher: "exhaustive", Repeats: 1},
	}
	code, events := postBatch(t, ts.URL, "application/json", "", manifestBody(t, items))
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 even under partial shed", code)
	}
	byItem, sum := eventsByItem(events)
	headTerm := byItem["head"][len(byItem["head"])-1]
	if headTerm.Type != batch.EventRefined {
		t.Fatalf("head terminal = %+v, want refined", headTerm)
	}
	tailEvs := byItem["tail"]
	if len(tailEvs) != 1 || tailEvs[0].Type != batch.EventError || tailEvs[0].Code != batch.CodeShed {
		t.Fatalf("tail events = %+v, want a single shed error", tailEvs)
	}
	if sum.Shed != 1 || sum.Completed != 1 {
		t.Errorf("summary = %+v", sum)
	}

	// With DegradeOnShed the shed tail degrades to the static split
	// instead of erroring.
	cfg.DegradeOnShed = true
	s2 := New(cfg)
	ts2 := newHTTPServer(t, s2)
	code, events = postBatch(t, ts2.URL, "application/json", "", manifestBody(t, items))
	if code != http.StatusOK {
		t.Fatalf("degraded status = %d", code)
	}
	byItem, sum = eventsByItem(events)
	tailEvs = byItem["tail"]
	term := tailEvs[len(tailEvs)-1]
	if term.Type != batch.EventRefined || !term.Degraded || term.Code != batch.CodeShed {
		t.Fatalf("degraded tail terminal = %+v, want degraded refined with shed code", term)
	}
	var est EstimateResponse
	if err := json.Unmarshal(term.Estimate, &est); err != nil {
		t.Fatal(err)
	}
	if !est.Degraded || est.Searcher != "naive-static(fallback)" {
		t.Errorf("degraded estimate = %+v", est)
	}
	if sum.Degraded != 1 {
		t.Errorf("summary degraded = %d, want 1", sum.Degraded)
	}
}

// TestBatchLimits — structural rejections: duplicate names 400, item
// and byte ceilings 413, all with machine-readable codes.
func TestBatchLimits(t *testing.T) {
	cfg := Config{BatchMaxItems: 2, BatchMaxBytes: 4096}
	cfg.Logger = testLogger(t)
	ts := newHTTPServer(t, New(cfg))

	post := func(body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/estimate-batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("non-JSON rejection: %s", raw)
		}
		return resp.StatusCode, out
	}

	code, body := post(manifestBody(t, []batch.Item{
		{Name: "x", Dataset: "cant"}, {Name: "x", Dataset: "cant"},
	}))
	if code != http.StatusBadRequest || body["code"] != "duplicate_item" {
		t.Errorf("duplicate names: %d %v", code, body)
	}

	code, body = post(manifestBody(t, []batch.Item{
		{Name: "a", Dataset: "cant"}, {Name: "b", Dataset: "cant"}, {Name: "c", Dataset: "cant"},
	}))
	if code != http.StatusRequestEntityTooLarge || body["code"] != "too_many_items" {
		t.Errorf("too many items: %d %v", code, body)
	}

	big := make([]byte, 8192)
	for i := range big {
		big[i] = 'x'
	}
	code, body = post(big)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %v", code, body)
	}
}

// TestBatchInvalidItemsDoNotFailSiblings — unknown datasets and bad
// searchers answer as per-item invalid events while valid items run.
func TestBatchInvalidItemsDoNotFailSiblings(t *testing.T) {
	cfg := Config{}
	cfg.Logger = testLogger(t)
	ts := newHTTPServer(t, New(cfg))

	items := []batch.Item{
		{Name: "ok", Workload: "spmm", Dataset: "cant", Repeats: 1},
		{Name: "ghost", Workload: "spmm", Dataset: "no-such-dataset"},
		{Name: "bad", Workload: "spmm", Dataset: "cant", Searcher: "sorcery"},
	}
	code, events := postBatch(t, ts.URL, "application/json", "", manifestBody(t, items))
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	byItem, sum := eventsByItem(events)
	for _, name := range []string{"ghost", "bad"} {
		evs := byItem[name]
		if len(evs) != 1 || evs[0].Type != batch.EventError || evs[0].Code != batch.CodeInvalid {
			t.Errorf("%q events = %+v, want one invalid error", name, evs)
		}
	}
	okTerm := byItem["ok"][len(byItem["ok"])-1]
	if okTerm.Type != batch.EventRefined {
		t.Errorf("ok terminal = %+v", okTerm)
	}
	if sum.Completed != 1 || sum.Failed != 2 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestBatchContentNegotiation — SSE framing on request, one buffered
// JSON document by default.
func TestBatchContentNegotiation(t *testing.T) {
	cfg := Config{}
	cfg.Logger = testLogger(t)
	ts := newHTTPServer(t, New(cfg))
	body := manifestBody(t, []batch.Item{{Name: "a", Workload: "spmm", Dataset: "cant", Repeats: 1}})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/estimate-batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	for _, frame := range []string{"event: coarse\n", "event: refined\n", "event: summary\n"} {
		if !strings.Contains(string(raw), frame) {
			t.Errorf("SSE stream missing %q:\n%s", frame, raw)
		}
	}

	resp2, err := http.Post(ts.URL+"/estimate-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("buffered content type = %q", ct)
	}
	var buffered struct {
		Events  []batch.Event  `json:"events"`
		Summary *batch.Summary `json:"summary"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&buffered); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Events) == 0 || buffered.Summary == nil || buffered.Summary.Completed != 1 {
		t.Fatalf("buffered body = %+v", buffered)
	}
}

// TestBatchFirstResultBeatsLast — streaming means the first refined
// event arrives well before the job finishes: with one slow and one
// fast item, the fast item's terminal event must be readable while the
// slow item is still estimating.
func TestBatchFirstResultBeatsLast(t *testing.T) {
	cfg := Config{}
	cfg.Logger = testLogger(t)
	ts := newHTTPServer(t, New(cfg))

	items := []batch.Item{
		{Name: "fast", Workload: "spmm", Dataset: "cant", Searcher: "race", Repeats: 1},
		{Name: "slowish", Workload: "spmm", Dataset: "cant", Searcher: "exhaustive", Repeats: 9, Seed: 5},
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/estimate-batch", bytes.NewReader(manifestBody(t, items)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var firstRefined, last time.Time
	start := time.Now()
	if err := batch.ReadEvents(resp.Body, func(e batch.Event) error {
		now := time.Now()
		if e.Type == batch.EventRefined && firstRefined.IsZero() {
			firstRefined = now
		}
		last = now
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if firstRefined.IsZero() {
		t.Fatal("no refined event")
	}
	ttfr, ttl := firstRefined.Sub(start), last.Sub(start)
	t.Logf("time-to-first-result %v, time-to-last %v", ttfr, ttl)
	if ttfr >= ttl {
		t.Errorf("first refined event did not precede the trailer: %v >= %v", ttfr, ttl)
	}
}

// newHTTPServer wraps an already-built Server (tests that need the
// *Server for metric/pool assertions alongside the HTTP listener).
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestBatchAndSingleShareCacheEntries — a batch item and an /estimate
// request with equal parameters resolve to one result-cache entry, in
// either order: the second answer is a cache hit, and a batch whose
// items all hit runs no admission.
func TestBatchAndSingleShareCacheEntries(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 16})
	batchOne := func(it batch.Item) (batch.Event, *batch.Summary) {
		t.Helper()
		body, ct, err := batch.EncodeRequest([]batch.Item{it})
		if err != nil {
			t.Fatal(err)
		}
		code, events := postBatch(t, ts.URL, ct, "", body)
		byItem, sum := eventsByItem(events)
		if code != http.StatusOK || sum == nil || len(byItem[it.Name]) == 0 {
			t.Fatalf("batch %s: status %d, events %+v", it.Name, code, events)
		}
		evs := byItem[it.Name]
		return evs[len(evs)-1], sum
	}
	cachedFlag := func(e batch.Event) any {
		var out map[string]any
		if err := json.Unmarshal(e.Estimate, &out); err != nil {
			t.Fatalf("bad estimate payload: %v", err)
		}
		return out["cached"]
	}

	// /estimate first, then the same input as a batch item.
	getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=qcd5_4&repeats=1", http.StatusOK)
	last, sum := batchOne(batch.Item{Name: "q", Workload: "spmm", Dataset: "qcd5_4", Repeats: 1})
	if cachedFlag(last) != true || sum.Admissions != 0 {
		t.Errorf("batch after /estimate: cached=%v admissions=%d, want a cache hit and no admission",
			cachedFlag(last), sum.Admissions)
	}

	// A batch item first, then the same input through /estimate.
	batchOne(batch.Item{Name: "c", Workload: "spmm", Dataset: "cant", Repeats: 1})
	if out := getJSON(t, ts.URL+"/estimate?workload=spmm&dataset=cant&repeats=1", http.StatusOK); out["cached"] != true {
		t.Errorf("/estimate after batch: cached=%v, want true", out["cached"])
	}

	// Uploads key by fingerprint on both endpoints alike.
	mtx := genMTX(t, 800, 6000, 9)
	batchOne(batch.Item{Name: "up", Workload: "spmm", Repeats: 1, Body: mtx})
	if out := postMTX(t, ts.URL+"/estimate?workload=spmm&repeats=1", mtx, http.StatusOK); out["cached"] != true {
		t.Errorf("upload /estimate after batch: cached=%v, want true", out["cached"])
	}
}
