package repro

// BenchmarkBatch measures what batching buys through the gateway and
// writes BENCH_batch.json.
//
//	go test -run '^$' -bench=BenchmarkBatch -benchtime=1x .
//
// An in-process hetgate fronts 3 embedded hetserve backends with the
// settings `hetgate -embedded 3` uses. Each call of an arm estimates 8
// fresh power-law uploads (rendered outside the timing, never seen
// before, so no result cache helps), either as one NDJSON
// /estimate-batch job or as 8 sequential /estimate requests. The arms
// alternate (bench_timing_test.go) and the report records:
//
//   - speedup: the median per-round sequential/batch ratio, held at
//     2× or more — the amortization contract at 8 items.
//   - ttfr_frac: time to the first terminal event over time to the
//     last, summed over every job, at most 0.9. A buffered path that
//     holds results until the job ends reads 1.
//   - admissions_per_job: at most one admission per sub-batch, so at
//     most one per backend.
//   - builds_per_job: at most one workload build per item.
//   - errors: failed requests, jobs or items in either arm; none.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/benchfmt"
	"repro/internal/cluster"
	"repro/internal/mmio"
	"repro/internal/serve"
	"repro/internal/sparse"
)

const (
	batchItems    = 8
	batchBackends = 3
)

func BenchmarkBatch(b *testing.B) {
	e, err := cluster.StartEmbedded(batchBackends, serve.Config{Parallelism: 1, CacheSize: serve.DefaultCacheSize})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	g, err := cluster.New(cluster.Config{Backends: e.URLs()})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go g.Run(ctx)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	client := srv.Client()

	seed := uint64(10_000)
	fresh := func() [][]byte {
		bodies := make([][]byte, batchItems)
		for i := range bodies {
			m, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassPowerLaw, Rows: 600, NNZ: 6000, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			seed++
			var buf bytes.Buffer
			if err := mmio.Write(&buf, m.ToCOO()); err != nil {
				b.Fatal(err)
			}
			bodies[i] = buf.Bytes()
		}
		return bodies
	}

	var jobs, admissions, builds, failures int
	var ttfr, ttlr time.Duration
	// job runs one /estimate-batch request and returns its wall-clock.
	job := func(bodies [][]byte) time.Duration {
		items := make([]batch.Item, len(bodies))
		for i, body := range bodies {
			items[i] = batch.Item{Name: fmt.Sprintf("it%d", i), Workload: "spmm", Repeats: 1, Body: body}
		}
		payload, contentType, err := batch.EncodeRequest(items)
		if err != nil {
			b.Fatal(err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/estimate-batch", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", "application/x-ndjson")
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			failures++
			return time.Since(start)
		}
		defer resp.Body.Close()
		var first, last time.Duration
		var sum *batch.Summary
		terminals := 0
		err = batch.ReadEvents(resp.Body, func(ev batch.Event) error {
			switch {
			case ev.Type == batch.EventSummary:
				sum = ev.Summary
			case ev.Terminal():
				terminals++
				last = time.Since(start)
				if first == 0 {
					first = last
				}
			}
			return nil
		})
		wall := time.Since(start)
		if err != nil || resp.StatusCode != http.StatusOK || sum == nil || terminals != len(items) || sum.Completed != len(items) {
			failures++
			return wall
		}
		jobs++
		admissions += sum.Admissions
		builds += sum.Builds
		ttfr += first
		ttlr += last
		return wall
	}
	// sequential posts the same kind of inputs one /estimate at a time.
	sequential := func(bodies [][]byte) time.Duration {
		start := time.Now()
		for _, body := range bodies {
			resp, err := client.Post(srv.URL+"/estimate?workload=spmm&repeats=1", "text/plain", bytes.NewReader(body))
			if err != nil {
				failures++
				continue
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				failures++
			}
		}
		return time.Since(start)
	}
	// freshArm renders new inputs for every call, outside the timing.
	freshArm := func(run func([][]byte) time.Duration) arm {
		return func(n int) time.Duration {
			var total time.Duration
			for range n {
				total += run(fresh())
			}
			return total
		}
	}
	speedup := pairRatio(freshArm(sequential), freshArm(job), parallelArmTime)

	rep := benchfmt.New()
	name := fmt.Sprintf("items=%d/backends=%d", batchItems, batchBackends)
	perJob := func(n int) float64 { return float64(n) / float64(max(jobs, 1)) }
	rep.Rows = []benchfmt.Row{
		{Layer: "batch", Case: name, Metric: "speedup", Value: speedup, Unit: "x",
			Better: "higher", Cores: batchBackends, Min: benchfmt.Bound(2)},
		{Layer: "batch", Case: name, Metric: "ttfr_frac", Value: float64(ttfr) / float64(max(ttlr, 1)), Unit: "x",
			Better: "lower", Cores: batchBackends, Max: benchfmt.Bound(0.9)},
		{Layer: "batch", Case: name, Metric: "admissions_per_job", Value: perJob(admissions), Unit: "count",
			Better: "lower", Max: benchfmt.Bound(batchBackends)},
		{Layer: "batch", Case: name, Metric: "builds_per_job", Value: perJob(builds), Unit: "count",
			Better: "lower", Max: benchfmt.Bound(batchItems)},
		{Layer: "batch", Case: name, Metric: "errors", Value: float64(failures), Unit: "count",
			Better: "lower", Max: benchfmt.Bound(0)},
	}
	writeReport(b, rep, "BENCH_batch.json")
}
