package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
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

	// The fan-out metrics render even at zero — CI reads the degraded
	// counter by name.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	page, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"hetgate_fanout_batches_total 1",
		"hetgate_fanout_degraded_total 0",
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
// siblings, wherever the ring placed them, still refine. As in serve's
// TestDeadlineHeaderBoundsWork, the budget is calibrated on the host:
// each item is first timed alone, so a faster or slower host cannot
// flip either verdict. CI runs this under -race.
func TestDeadlineCarvingAcrossBatchFanout(t *testing.T) {
	scfg := serve.Config{Workers: 2, CacheSize: 64, AdmissionLimit: 100000}
	_, _, ts := startChaosCluster(t, 2, scfg, nil)

	slowBody := genMTX(t, 60000, 1200000, 1)
	items := func(seed uint64) []batch.Item {
		return []batch.Item{
			{Name: "f1", Workload: "spmm", Searcher: "race", Repeats: 1, Seed: seed, Body: genMTX(t, 200, 800, 2)},
			{Name: "f2", Workload: "spmm", Searcher: "race", Repeats: 1, Seed: seed, Body: genMTX(t, 200, 800, 3)},
			{Name: "slow", Workload: "spmm", Searcher: "exhaustive", Repeats: 99, Seed: seed, Body: slowBody},
		}
	}
	// timeAlone runs one item as a job of its own, with no budget, and
	// returns the job's wall time: the item's parse, build and search,
	// all of which its carved slice must cover. Calibration uses another
	// seed than the timed job, so the result cache cannot answer it.
	timeAlone := func(it batch.Item) time.Duration {
		t.Helper()
		start := time.Now()
		status, events := postBatchGW(t, ts.URL, []batch.Item{it}, nil)
		elapsed := time.Since(start)
		if status != http.StatusOK {
			t.Fatalf("calibrating %q: status = %d\n%+v", it.Name, status, events)
		}
		if term, _ := terminalsByItem(t, events); term[it.Name].Type != batch.EventRefined {
			t.Fatalf("calibrating %q: terminal = %+v, want refined", it.Name, term[it.Name])
		}
		return elapsed
	}
	calib := items(1)
	sibling := max(timeAlone(calib[0]), timeAlone(calib[1]))
	slowAlone := timeAlone(calib[2])

	// Each backend runs its items in manifest order, re-carving the
	// remaining budget before each, so the slow item's slice is at most
	// the whole budget and a sibling's at least a third of it. The
	// siblings' slices must also absorb a loaded host's scheduling
	// delays, which do not shrink with the work.
	budget := slowAlone / 3
	if budget/3 < 4*sibling || budget/3 < 4*resilience.MinBudget {
		t.Fatalf("no budget separates the items: slow item alone %v, sibling %v", slowAlone, sibling)
	}
	t.Logf("slow item alone %v, sibling %v: job budget %v", slowAlone, sibling, budget)

	status, events := postBatchGW(t, ts.URL, items(2), map[string]string{
		resilience.DeadlineHeader: strconv.FormatInt(budget.Milliseconds(), 10),
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
		t.Errorf("slow item terminal = %+v, want deadline_exceeded (budget %v, slow item alone %v)", slow, budget, slowAlone)
	}
	for _, name := range []string{"f1", "f2"} {
		e, ok := term[name]
		if !ok {
			t.Fatalf("sibling %q has no terminal event", name)
		}
		if e.Type != batch.EventRefined {
			t.Errorf("sibling %q terminal = %+v, want refined — one item's budget must not starve its siblings (budget %v, sibling alone %v)",
				name, e, budget, sibling)
		}
	}
}

// TestBatchStalledShardDegradesToCoarse — a shard that accepts its
// sub-batch, emits a coarse event and then hangs is cut at the
// upstream timeout: its item is answered by that coarse event, marked
// degraded with backend_failed, while an item on a healthy shard
// refines cleanly.
func TestBatchStalledShardDegradesToCoarse(t *testing.T) {
	e, err := StartEmbedded(1, serve.Config{Workers: 2, CacheSize: 16, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	healthy := e.URLs()[0]

	stop := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		if r.URL.Path == "/estimate-batch" {
			job, err := batch.ParseRequest(r, batch.DefaultMaxItems, 1<<20)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			bw := batch.NewWriter(w, batch.ModeNDJSON)
			bw.Start(w)
			for _, it := range job.Items {
				bw.Emit(batch.Event{Type: batch.EventCoarse, Item: it.Name,
					Estimate: []byte(`{"searcher":"naive-static(coarse)","threshold":50}`)})
			}
		}
		// Drain the body before blocking: with unread body bytes the
		// server cannot notice the client hanging up, and the handler
		// would outlive its caller.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(stop) }) // runs before stall.Close (LIFO)

	const timeout = 500 * time.Millisecond
	g, err := New(Config{
		Backends:        []string{stall.URL, healthy},
		HealthInterval:  time.Hour, // no prober traffic; breakers stay closed
		UpstreamTimeout: timeout,
		Logger:          testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	// One upload the ring places on each backend.
	placed := make(map[string]batch.Item)
	for seed := uint64(1); len(placed) < 2; seed++ {
		if seed > 200 {
			t.Fatalf("200 uploads placed only on %v", placed)
		}
		it := batch.Item{Workload: "spmm", Searcher: "race", Repeats: 1, Body: genMTX(t, 200, 800, seed)}
		if b, ok := g.placeItem(it); ok && placed[b].Body == nil {
			it.Name = fmt.Sprintf("seed%d", seed)
			placed[b] = it
		}
	}
	stalled, fine := placed[stall.URL], placed[healthy]

	start := time.Now()
	status, events := postBatchGW(t, ts.URL, []batch.Item{stalled, fine}, nil)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%+v", status, events)
	}
	term, sum := terminalsByItem(t, events)

	got := term[stalled.Name]
	if got.Type != batch.EventRefined || !got.Degraded || got.Code != batch.CodeBackendFailed {
		t.Errorf("stalled item terminal = %+v, want refined, degraded, %s", got, batch.CodeBackendFailed)
	}
	var est struct {
		Searcher  string  `json:"searcher"`
		Threshold float64 `json:"threshold"`
	}
	if err := json.Unmarshal(got.Estimate, &est); err != nil || est.Searcher != "naive-static(coarse)" || est.Threshold != 50 {
		t.Errorf("stalled item estimate = %s (%v), want the shard's coarse estimate", got.Estimate, err)
	}
	if got.Backend != stall.URL {
		t.Errorf("stalled item backend = %s, want the stalled shard %s", got.Backend, stall.URL)
	}
	if e := term[fine.Name]; e.Type != batch.EventRefined || e.Degraded || e.Backend != healthy {
		t.Errorf("healthy item terminal = %+v, want clean refined from %s", e, healthy)
	}
	if sum.Completed != 2 || sum.Degraded != 1 {
		t.Errorf("summary = %+v, want 2 completed, 1 degraded", sum)
	}
	if n := g.Metrics().FanoutDegraded.Value(); n != 1 {
		t.Errorf("hetgate_fanout_degraded_total = %d, want 1", n)
	}
	// The upstream timeout, not a second run of the item, ends the job.
	if elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Errorf("job took %v, want it to end near the %v upstream timeout", elapsed, timeout)
	}
}

// TestBatchSlowShardRunsItemsOnce — a healthy shard that streams each
// item 400 ms apart is left to finish: none of its items is re-sent
// through the single-item path under the default Config.
func TestBatchSlowShardRunsItemsOnce(t *testing.T) {
	var singles atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(w, "ok")
		case "/estimate-batch":
			job, err := batch.ParseRequest(r, batch.DefaultMaxItems, 1<<20)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			bw := batch.NewWriter(w, batch.ModeNDJSON)
			bw.Start(w)
			for _, it := range job.Items {
				select {
				case <-time.After(400 * time.Millisecond):
				case <-r.Context().Done():
					return
				}
				bw.Emit(batch.Event{Type: batch.EventRefined, Item: it.Name, Estimate: []byte(`{"threshold":50}`)})
			}
			bw.Emit(batch.Event{Type: batch.EventSummary, Summary: &batch.Summary{
				Items: len(job.Items), Completed: len(job.Items), Admissions: 1}})
			bw.Close()
		default:
			singles.Add(1)
			io.Copy(io.Discard, r.Body)
			select {
			case <-time.After(400 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"threshold":50}`)
		}
	}))
	t.Cleanup(shard.Close)

	g, err := New(Config{Backends: []string{shard.URL}, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	var items []batch.Item
	for _, ds := range []string{"cant", "qcd5_4", "rma10", "pdb1HYS"} {
		items = append(items, batch.Item{Name: ds, Dataset: ds, Workload: "spmm", Repeats: 1})
	}
	status, events := postBatchGW(t, ts.URL, items, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%+v", status, events)
	}
	term, sum := terminalsByItem(t, events)
	for _, it := range items {
		if e := term[it.Name]; e.Type != batch.EventRefined || e.Degraded {
			t.Errorf("item %q terminal = %+v, want clean refined", it.Name, e)
		}
	}
	if sum.Completed != len(items) {
		t.Errorf("summary completed = %d, want %d", sum.Completed, len(items))
	}
	if n := singles.Load(); n != 0 {
		t.Errorf("the shard saw %d single-item requests while it streamed the batch, want 0", n)
	}
}
