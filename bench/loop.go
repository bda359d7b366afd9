package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
)

// request is one closed-loop client call.
type request struct {
	method      string
	pathQuery   string // "/estimate?..." or "/estimate-batch"
	body        []byte
	contentType string
	batch       bool
}

// outcome is what the client saw for one request.
type outcome struct {
	err     error
	status  int
	body    []byte        // single requests
	events  []batch.Event // batch jobs
	backend string        // X-Hetgate-Backend
	start   time.Time
	latency time.Duration
	first   time.Duration // time to the first terminal answer
	trace   string        // traceparent trace id, traced phases only
	post    bool
}

// traffic is a workload's request generator and answer recorder.
type traffic interface {
	// request returns the i-th request of the workload's sequence.
	request(i int) request
	// record inspects a finished request, keeps its answers for the
	// checker, and returns the answers it delivered and the failures it
	// carried.
	record(i int, o *outcome) (answers, failures int)
}

// client issues the closed-loop requests: at most `clients`
// connections to the gateway, each client waiting for its answer before
// sending the next request.
type client struct {
	http    *http.Client
	base    string
	t       traffic
	next    atomic.Int64
	traced  atomic.Bool
	clients int
}

func newClient(base string, t traffic, clients int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base, t: t, clients: clients}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole answer.
func (c *client) do(req request) *outcome {
	o := &outcome{post: req.method == http.MethodPost}
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, c.base+req.pathQuery, body)
	if err != nil {
		o.err = err
		return o
	}
	if req.contentType != "" {
		hr.Header.Set("Content-Type", req.contentType)
	}
	if req.batch {
		hr.Header.Set("Accept", "application/x-ndjson")
	}
	if c.traced.Load() {
		tid := obs.NewTraceID().String()
		hr.Header.Set("traceparent", "00-"+tid+"-"+obs.NewSpanID().String()+"-01")
		o.trace = tid
	}
	o.start = time.Now()
	resp, err := c.http.Do(hr)
	if err != nil {
		o.err = err
		o.latency = time.Since(o.start)
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	o.backend = resp.Header.Get("X-Hetgate-Backend")
	if req.batch && resp.StatusCode == http.StatusOK {
		o.err = batch.ReadEvents(resp.Body, func(e batch.Event) error {
			if e.Terminal() && o.first == 0 {
				o.first = time.Since(o.start)
			}
			o.events = append(o.events, e)
			return nil
		})
	} else {
		o.body, o.err = io.ReadAll(resp.Body)
	}
	o.latency = time.Since(o.start)
	if o.first == 0 {
		o.first = o.latency
	}
	return o
}

// phaseResult is what one timed phase of closed-loop traffic produced.
type phaseResult struct {
	winLen    time.Duration
	perWindow []int     // answers completed in each window
	speeds    []float64 // host speed before each window; nil when uncalibrated
	winP50    []float64 // each window's median latency, ms
	latencyMS []float64 // every request
	firstMS   []float64
	outcomes  []*outcome // traced phases only
	requests  int
	answers   int
	failures  int
	allocs    uint64
	allocKB   float64
	heapPeak  float64 // MiB
}

// heapInuse reads the bytes in in-use heap spans without stopping the
// world (runtime/metrics, the same quantity as MemStats.HeapInuse).
func heapInuse(samples []metrics.Sample) float64 {
	metrics.Read(samples)
	return float64(samples[0].Value.Uint64() + samples[1].Value.Uint64())
}

// run drives the closed-loop clients for nwin windows of winLen each.
// With cal non-nil the host's speed is measured before every window,
// while no request is in flight. keepOutcomes keeps every outcome for
// the per-layer analysis.
func (c *client) run(winLen time.Duration, nwin int, cal *calibrator, keepOutcomes bool) *phaseResult {
	res := &phaseResult{winLen: winLen, perWindow: make([]int, nwin)}
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	stopHeap := make(chan struct{})
	heapDone := make(chan struct{})
	go func() {
		defer close(heapDone)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if h := heapInuse(samples) / (1 << 20); h > res.heapPeak {
				res.heapPeak = h
			}
			select {
			case <-stopHeap:
				return
			case <-t.C:
			}
		}
	}()
	for w := 0; w < nwin; w++ {
		if cal != nil {
			res.speeds = append(res.speeds, cal.speed())
		}
		res.winP50 = append(res.winP50, percentile(c.window(res, w, keepOutcomes), 50))
	}
	close(stopHeap)
	<-heapDone
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if res.answers > 0 {
		res.allocs = ms1.Mallocs - ms0.Mallocs
		res.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	}
	return res
}

// window runs the clients for one window and returns its latencies.
// Requests start only before the window ends; one that finishes after
// it still counts as an attempt and a latency sample, but its answers
// count toward no window.
func (c *client) window(res *phaseResult, w int, keepOutcomes bool) []float64 {
	end := time.Now().Add(res.winLen)
	var lat []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < c.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(c.next.Add(1)) - 1
				o := c.do(c.t.request(i))
				answers, failures := c.t.record(i, o)
				ms := float64(o.latency.Nanoseconds()) / 1e6
				mu.Lock()
				res.requests++
				res.answers += answers
				res.failures += failures
				lat = append(lat, ms)
				res.latencyMS = append(res.latencyMS, ms)
				res.firstMS = append(res.firstMS, float64(o.first.Nanoseconds())/1e6)
				if o.start.Add(o.latency).Before(end) {
					res.perWindow[w] += answers
				}
				if keepOutcomes {
					res.outcomes = append(res.outcomes, o)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat
}

// scale is the factor turning a time measured in window w into one at
// referenceSpeed (1 when uncalibrated).
func (p *phaseResult) scale(w int) float64 {
	if p.speeds == nil {
		return 1
	}
	return p.speeds[w] / referenceSpeed
}

// throughput is the median over windows of answers per second, each
// window scaled to referenceSpeed.
func (p *phaseResult) throughput() float64 {
	rates := make([]float64, len(p.perWindow))
	for w, n := range p.perWindow {
		rates[w] = float64(n) / p.winLen.Seconds() / p.scale(w)
	}
	return median(rates)
}

// latencyP50 is the median over windows of each window's median
// latency, scaled to referenceSpeed.
func (p *phaseResult) latencyP50() float64 {
	xs := make([]float64, len(p.winP50))
	for w, l := range p.winP50 {
		xs[w] = l * p.scale(w)
	}
	return median(xs)
}

// hostSpeed is the median speed measured before the windows (0 when
// uncalibrated).
func (p *phaseResult) hostSpeed() float64 { return median(p.speeds) }
