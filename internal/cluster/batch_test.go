package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// postBatchGW posts a batch job to the gateway, streaming NDJSON, and
// returns the decoded events.
func postBatchGW(t *testing.T, base string, items []batch.Item, header map[string]string) (int, []batch.Event) {
	t.Helper()
	body, ct, err := batch.EncodeRequest(items)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/estimate-batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", "application/x-ndjson")
	for k, v := range header {
		req.Header.Set(k, v)
	}
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
		t.Fatal(err)
	}
	return resp.StatusCode, events
}

// terminalsByItem indexes the stream: per-item terminal event plus the
// job summary.
func terminalsByItem(t *testing.T, events []batch.Event) (map[string]batch.Event, *batch.Summary) {
	t.Helper()
	term := make(map[string]batch.Event)
	var sum *batch.Summary
	for _, e := range events {
		if e.Type == batch.EventSummary {
			sum = e.Summary
			continue
		}
		if e.Terminal() {
			if _, dup := term[e.Item]; dup {
				t.Errorf("item %q got two terminal events", e.Item)
			}
			term[e.Item] = e
		}
	}
	if sum == nil {
		t.Fatal("stream had no summary trailer")
	}
	return term, sum
}

// TestBatchFanoutScatterGather — the tentpole happy path: a mixed
// known-dataset batch splits across the ring by item placement, each
// sub-batch streams back coarse-then-refined events with backend
// provenance, and the merged summary aggregates admissions and builds
// across shards.
func TestBatchFanoutScatterGather(t *testing.T) {
	_, g, ts := startCluster(t, 3, nil)

	items := []batch.Item{
		{Name: "a", Dataset: "cant", Workload: "spmm", Searcher: "race", Repeats: 1},
		{Name: "b", Dataset: "qcd5_4", Workload: "spmm", Searcher: "race", Repeats: 1},
		{Name: "c", Dataset: "rma10", Workload: "spmm", Searcher: "race", Repeats: 1},
		{Name: "d", Body: genMTX(t, 300, 2400, 7), Workload: "spmm", Searcher: "race", Repeats: 1},
	}
	status, events := postBatchGW(t, ts.URL, items, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%+v", status, events)
	}
	term, sum := terminalsByItem(t, events)

	// Every item refines, and its events carry provenance from one
	// consistent backend.
	backendOf := make(map[string]string)
	for _, e := range events {
		if e.Item == "" {
			continue
		}
		if e.Backend == "" {
			t.Errorf("event %s/%s missing backend provenance", e.Type, e.Item)
		}
		if prev, ok := backendOf[e.Item]; ok && prev != e.Backend {
			t.Errorf("item %q moved %s → %s mid-job", e.Item, prev, e.Backend)
		}
		backendOf[e.Item] = e.Backend
	}
	seenCoarse := make(map[string]bool)
	for _, e := range events {
		switch e.Type {
		case batch.EventCoarse:
			seenCoarse[e.Item] = true
		case batch.EventRefined:
			if !seenCoarse[e.Item] {
				t.Errorf("item %q refined without a coarse event first", e.Item)
			}
		}
	}
	for _, it := range items {
		e, ok := term[it.Name]
		if !ok {
			t.Fatalf("item %q has no terminal event", it.Name)
		}
		if e.Type != batch.EventRefined || e.Degraded {
			t.Errorf("item %q terminal = %+v, want clean refined", it.Name, e)
		}
	}

	// The summary aggregates across shards: one admission per
	// sub-batch, so the total matches the distinct backends used.
	shards := make(map[string]bool)
	for _, b := range backendOf {
		shards[b] = true
	}
	if sum.Completed != len(items) {
		t.Errorf("summary completed = %d, want %d", sum.Completed, len(items))
	}
	if sum.Admissions != len(shards) {
		t.Errorf("summary admissions = %d, want %d (one per sub-batch)", sum.Admissions, len(shards))
	}

	m := g.Metrics()
	jobs, itemsN, degraded := m.FanoutJobs.Value(), m.FanoutItems.Value(), m.FanoutDegraded.Value()
	if jobs != 1 || itemsN != uint64(len(items)) {
		t.Errorf("fanout counts = %d jobs / %d items, want 1 / %d", jobs, itemsN, len(items))
	}
	if degraded != 0 {
		t.Errorf("fanout degraded = %d, want 0", degraded)
	}

	// The fan-out metrics render even at zero — CI greps for the hedge
	// counter by name.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	page, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"hetgate_fanout_batches_total 1",
		"hetgate_fanout_hedges_total 0",
		"hetgate_fanout_subbatches_total",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestFaultyShardShedsOnlyItsItems — chaos: one backend's admission is
// fully drained; its sub-batch sheds per item while every other
// shard's items refine untouched, and the sheds feed the breaker's
// shed streak (backpressure) rather than opening it as failures would.
func TestFaultyShardShedsOnlyItsItems(t *testing.T) {
	scfg := serve.Config{Workers: 2, CacheSize: 64, AdmissionLimit: 101, AdmissionQueue: -1}
	e, g, ts := startChaosCluster(t, 3, scfg, nil)

	// Enough small items that at least two backends get some.
	var items []batch.Item
	for i := 0; i < 8; i++ {
		items = append(items, batch.Item{
			Name: fmt.Sprintf("it%d", i), Workload: "spmm", Searcher: "race", Repeats: 1,
			Body: genMTX(t, 200, 800, uint64(10+i)),
		})
	}
	placement := make(map[string][]string) // backend → item names
	for _, it := range items {
		b, ok := g.placeItem(it)
		if !ok {
			t.Fatalf("item %q unplaced", it.Name)
		}
		placement[b] = append(placement[b], it.Name)
	}
	if len(placement) < 2 {
		t.Fatalf("all items landed on one backend; placement = %v", placement)
	}
	// Victim: the backend holding the fewest items (so most refine).
	var victim string
	for b, names := range placement {
		if victim == "" || len(names) < len(placement[victim]) {
			victim = b
		}
	}
	victimIdx := -1
	for i, u := range e.URLs() {
		if u == victim {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("victim %s not among backends", victim)
	}

	// Drain the victim: a max-cost estimation (clamped to the whole
	// admission capacity) holds its controller full for seconds.
	drainBody := genMTX(t, 30000, 600000, 99)
	drainCtx, stopDrain := context.WithCancel(context.Background())
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		req, err := http.NewRequestWithContext(drainCtx, http.MethodPost,
			victim+"/estimate?workload=spmm&searcher=exhaustive&repeats=99",
			bytes.NewReader(drainBody))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "text/plain")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer func() { <-drainDone }()
	defer stopDrain() // runs before the wait above: cut the drain loose
	// The victim is drained once the big job holds its whole admission
	// capacity. Polling the controller directly (rather than probing
	// over HTTP) keeps the probe itself from holding cost at the moment
	// the drain tries to acquire — with queuing disabled that would
	// shed the drain instead of the probe.
	adm := e.Server(victimIdx).Admission()
	deadline := time.Now().Add(30 * time.Second)
	for adm.InFlight() < adm.Limit() {
		if time.Now().After(deadline) {
			t.Fatalf("victim never reached admission capacity (in flight %d of %d)",
				adm.InFlight(), adm.Limit())
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, events := postBatchGW(t, ts.URL, items, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%+v", status, events)
	}
	term, sum := terminalsByItem(t, events)

	victims := make(map[string]bool)
	for _, name := range placement[victim] {
		victims[name] = true
	}
	for _, it := range items {
		e, ok := term[it.Name]
		if !ok {
			t.Fatalf("item %q has no terminal event", it.Name)
		}
		if victims[it.Name] {
			if e.Type != batch.EventError || e.Code != batch.CodeShed {
				t.Errorf("drained shard's item %q terminal = %+v, want shed marker", it.Name, e)
			}
		} else if e.Type != batch.EventRefined || e.Degraded {
			t.Errorf("healthy shard's item %q terminal = %+v, want clean refined — one drained shard must not fail its siblings", it.Name, e)
		}
	}
	if sum.Shed != len(placement[victim]) {
		t.Errorf("summary shed = %d, want %d (exactly the drained shard's items)", sum.Shed, len(placement[victim]))
	}
	if sum.Completed != len(items)-len(placement[victim]) {
		t.Errorf("summary completed = %d, want %d", sum.Completed, len(items)-len(placement[victim]))
	}

	// Sheds are backpressure: the victim's breaker must not be open —
	// that is RecordShed's whole point (threshold 5 → 10 sheds to trip;
	// this job shed at most 8).
	if st := g.breaker(victim).State(); st == BreakerOpen {
		t.Errorf("victim breaker open after %d sheds; sheds must not count as transport failures", sum.Shed)
	}
}

// TestDeadlineCarvingAcrossBatchFanout — the client's propagated
// budget flows gateway → sub-batch → per-item carve: an oversized item
// runs out of its slice and reports deadline_exceeded while its cheap
// siblings, wherever the ring placed them, still refine. CI runs this
// under -race.
func TestDeadlineCarvingAcrossBatchFanout(t *testing.T) {
	scfg := serve.Config{Workers: 2, CacheSize: 64, AdmissionLimit: 100000}
	_, _, ts := startChaosCluster(t, 2, scfg, nil)

	items := []batch.Item{
		{Name: "f1", Workload: "spmm", Searcher: "race", Repeats: 1, Body: genMTX(t, 200, 800, 2)},
		{Name: "f2", Workload: "spmm", Searcher: "race", Repeats: 1, Body: genMTX(t, 200, 800, 3)},
		{Name: "slow", Workload: "spmm", Searcher: "exhaustive", Repeats: 99, Body: genMTX(t, 60000, 1200000, 1)},
	}
	status, events := postBatchGW(t, ts.URL, items, map[string]string{
		resilience.DeadlineHeader: "600",
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%+v", status, events)
	}
	term, _ := terminalsByItem(t, events)

	slow, ok := term["slow"]
	if !ok {
		t.Fatal("slow item has no terminal event")
	}
	if slow.Type != batch.EventError || slow.Code != batch.CodeDeadline {
		t.Errorf("slow item terminal = %+v, want deadline_exceeded", slow)
	}
	for _, name := range []string{"f1", "f2"} {
		e, ok := term[name]
		if !ok {
			t.Fatalf("sibling %q has no terminal event", name)
		}
		if e.Type != batch.EventRefined {
			t.Errorf("sibling %q terminal = %+v, want refined — one item's budget must not starve its siblings", name, e)
		}
	}
}

// TestBatchStragglerHedgeRescuesItem — per-item hedging: a shard that
// accepts its sub-batch and then stalls mid-stream gets its item
// hedged individually through the single-item path, which answers from
// a healthy replica while the job is still running.
func TestBatchStragglerHedgeRescuesItem(t *testing.T) {
	// A healthy real backend...
	e, err := StartEmbedded(1, serve.Config{Workers: 2, CacheSize: 16, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	// ...and a stalling one: it opens the batch stream, emits one
	// coarse event, then sits on the connection until cancelled. Its
	// single-item /estimate stalls the same way, so the rescue's own
	// hedge must hop to the healthy replica.
	var stallItem struct {
		mu   sync.Mutex
		name string
	}
	stop := make(chan struct{})
	// Draining the body before blocking matters: with unread body bytes
	// the server's background read can't detect the client hanging up,
	// and the handler would outlive its caller.
	wait := func(r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(w, "ok")
		case "/estimate-batch":
			stallItem.mu.Lock()
			name := stallItem.name
			stallItem.mu.Unlock()
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintf(w, `{"type":"coarse","item":%q,"estimate":{"searcher":"naive-static(coarse)","threshold":50}}`+"\n", name)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			wait(r)
		default:
			wait(r)
		}
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(stop) }) // runs before stall.Close (LIFO)

	g, err := New(Config{
		Backends:        []string{stall.URL, e.URLs()[0]},
		HealthInterval:  time.Hour, // no prober traffic; breakers stay closed
		MaxAttempts:     2,
		RetryBase:       5 * time.Millisecond,
		RetryMax:        10 * time.Millisecond,
		HedgeDelay:      100 * time.Millisecond,
		UpstreamTimeout: 10 * time.Second,
		Logger:          testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	// Find an upload the ring places on the stalling backend.
	var item batch.Item
	for seed := uint64(1); ; seed++ {
		if seed > 200 {
			t.Fatal("no seed placed an item on the stalling backend")
		}
		it := batch.Item{Name: "x", Workload: "spmm", Searcher: "race", Repeats: 1,
			Body: genMTX(t, 200, 800, seed)}
		if b, ok := g.placeItem(it); ok && b == stall.URL {
			item = it
			break
		}
	}
	stallItem.mu.Lock()
	stallItem.name = item.Name
	stallItem.mu.Unlock()

	start := time.Now()
	status, events := postBatchGW(t, ts.URL, []batch.Item{item}, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%+v", status, events)
	}
	term, sum := terminalsByItem(t, events)
	e2, ok := term[item.Name]
	if !ok {
		t.Fatal("item has no terminal event")
	}
	if e2.Type != batch.EventRefined || e2.Degraded {
		t.Fatalf("terminal = %+v, want clean refined from the hedge", e2)
	}
	if !e2.Hedged {
		t.Error("terminal event not marked hedged")
	}
	if e2.Backend != e.URLs()[0] {
		t.Errorf("terminal backend = %s, want the healthy replica %s", e2.Backend, e.URLs()[0])
	}
	if sum.Completed != 1 {
		t.Errorf("summary completed = %d, want 1", sum.Completed)
	}
	// The hedge, not the 10s upstream timeout, must have answered.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("job took %v; the straggler hedge should answer in well under a second", elapsed)
	}
	if g.Metrics().FanoutHedges.Value() == 0 {
		t.Error("hetgate_fanout_hedges_total did not move")
	}
}
