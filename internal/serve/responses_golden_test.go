package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/store"
)

// wallMS matches the one response field that depends on the wall
// clock, in both the indented /estimate body and compact batch events;
// requestID matches the random correlation ID error bodies echo.
var (
	wallMS    = regexp.MustCompile(`("wall_ms":\s*)[-+0-9.eE]+`)
	requestID = regexp.MustCompile(`("request_id":\s*)"[0-9a-f]+"`)
)

// goldenScript records a scripted conversation with one or more
// servers: every request, its status, the transfer/degrade headers and
// the body with wall_ms and request_id masked.
type goldenScript struct {
	t *testing.T
	b strings.Builder
}

// server starts a quiet Server (its background revalidations may
// outlive the test, so it must not log through t).
func (g *goldenScript) server(label string, cfg Config) (*Server, string) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 64
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	g.t.Cleanup(ts.Close)
	fmt.Fprintf(&g.b, "=== server %s\n", label)
	return s, ts.URL
}

func (g *goldenScript) record(label string, req *http.Request) {
	g.t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		g.t.Fatal(err)
	}
	fmt.Fprintf(&g.b, "--- %s\nstatus=%d store=%q degraded=%q\n%s\n", label, resp.StatusCode,
		resp.Header.Get(StoreHeader), resp.Header.Get(DegradedHeader),
		bytes.TrimRight(requestID.ReplaceAll(wallMS.ReplaceAll(body, []byte("${1}<masked>")), []byte("${1}<masked>")), "\n"))
}

func (g *goldenScript) get(label, url string) {
	g.t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		g.t.Fatal(err)
	}
	g.record(label, req)
}

func (g *goldenScript) post(label, url string, body []byte) {
	g.t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	g.record(label, req)
}

func (g *goldenScript) batch(label, url string, items []batch.Item) {
	g.t.Helper()
	body, ct, err := batch.EncodeRequest(items)
	if err != nil {
		g.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/estimate-batch", bytes.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", "application/x-ndjson")
	g.record(label, req)
}

// TestResponsesGolden pins hetserve's answers byte for byte across
// every miss path: scalar and N-device estimates, uploads, the
// threshold store's cold → warm → skip progression, stale hits, and
// degraded answers, through both /estimate and /estimate-batch. No
// input is requested through both endpoints. -update rewrites the
// file from the current code.
func TestResponsesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the estimation pipeline end to end")
	}
	g := &goldenScript{t: t}

	_, url := g.server("plain", Config{Workers: 2})
	g.get("scalar cc default", url+"/estimate?workload=cc&dataset=cant")
	g.get("scalar spmm exhaustive", url+"/estimate?workload=spmm&dataset=qcd5_4&searcher=exhaustive&repeats=2&seed=7")
	g.get("scalar scalefree", url+"/estimate?workload=scalefree&dataset=rma10&repeats=1")
	g.get("devices=2 spmm", url+"/estimate?workload=spmm&dataset=cant&devices=2")
	g.get("devices=3 cc", url+"/estimate?workload=cc&dataset=pdb1HYS&devices=3&repeats=1")
	g.get("devices=3 spmm race", url+"/estimate?workload=spmm&dataset=pdb1HYS&devices=3&searcher=race&repeats=2")
	g.post("upload spmm", url+"/estimate?workload=spmm&repeats=1", genMTX(t, 1500, 12000, 21))
	g.post("upload devices=3 cc", url+"/estimate?workload=cc&devices=3&repeats=1", genMTX(t, 1500, 12000, 22))
	g.get("scalar cc default again (cached)", url+"/estimate?workload=cc&dataset=cant")
	g.get("devices=3 cc again (cached)", url+"/estimate?workload=cc&dataset=pdb1HYS&devices=3&repeats=1")
	g.get("unknown dataset", url+"/estimate?workload=cc&dataset=nope")
	g.get("scalefree devices", url+"/estimate?workload=scalefree&dataset=rma10&devices=3")
	g.batch("batch mixed", url, []batch.Item{
		{Name: "a", Workload: "cc", Dataset: "consph", Repeats: 1},
		{Name: "b", Workload: "spmm", Dataset: "shipsec1", Searcher: "gradient", Seed: 5},
		{Name: "c", Workload: "scalefree", Dataset: "cop20k_A", Repeats: 1},
		{Name: "up", Workload: "spmm", Repeats: 1, Body: genMTX(t, 1500, 12000, 23)},
		{Name: "bad", Workload: "spmm", Dataset: "consph", Searcher: "nope"},
		{Name: "missing", Workload: "cc", Dataset: "nope"},
	})
	g.batch("batch repeat (cached)", url, []batch.Item{
		{Name: "a", Workload: "cc", Dataset: "consph", Repeats: 1},
		{Name: "b2", Workload: "spmm", Dataset: "shipsec1", Searcher: "exhaustive", Repeats: 1},
	})

	st, err := store.Open(store.Config{SkipConfidence: 0.52})
	if err != nil {
		t.Fatal(err)
	}
	_, url = g.server("store", Config{Workers: 2, Store: st})
	for i, seed := range []uint64{31, 32, 33, 34} {
		g.post(fmt.Sprintf("store upload %d", i), url+estimateURL, genMTX(t, 3000, 30000, seed))
	}
	g.post("store upload 0 again (cached)", url+estimateURL, genMTX(t, 3000, 30000, 31))
	g.get("store dataset cold", url+"/estimate?workload=spmm&dataset=cant&repeats=1")
	g.get("store devices=2 bypasses the store", url+"/estimate?workload=spmm&dataset=rma10&devices=2&repeats=1")
	g.batch("store batch", url, []batch.Item{
		{Name: "u5", Workload: "spmm", Searcher: "exhaustive", Repeats: 1, Body: genMTX(t, 3000, 30000, 35)},
		{Name: "u6", Workload: "spmm", Searcher: "exhaustive", Repeats: 1, Body: genMTX(t, 3000, 30000, 36)},
		{Name: "ds", Workload: "cc", Dataset: "qcd5_4", Repeats: 1},
	})

	_, url = g.server("stale", Config{Workers: 2, StaleAfter: time.Nanosecond})
	g.batch("stale batch fresh", url, []batch.Item{{Name: "x", Workload: "spmm", Dataset: "consph", Repeats: 1}})
	g.batch("stale batch hit", url, []batch.Item{{Name: "x", Workload: "spmm", Dataset: "consph", Repeats: 1}})
	g.get("stale fresh", url+"/estimate?workload=spmm&dataset=cant&seed=11&repeats=1")
	g.get("stale hit", url+"/estimate?workload=spmm&dataset=cant&seed=11&repeats=1")

	s, url := g.server("degraded", Config{Workers: 2, DegradeOnShed: true, AdmissionLimit: 1, AdmissionQueue: -1})
	if err := s.Admission().Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Admission().Release(1) })
	g.get("degraded scalar", url+"/estimate?workload=spmm&dataset=cant&repeats=1")
	g.get("degraded devices=3", url+"/estimate?workload=cc&dataset=cant&devices=3")
	g.get("degraded devices=2", url+"/estimate?workload=spmm&dataset=qcd5_4&devices=2")
	g.batch("degraded batch", url, []batch.Item{
		{Name: "d1", Workload: "cc", Dataset: "consph", Repeats: 1},
		{Name: "d2", Workload: "spmm", Dataset: "shipsec1"},
	})

	checkGolden(t, "testdata/responses.golden", g.b.String())
}
