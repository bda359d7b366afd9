package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// backendCount is the cluster size `hetgate -embedded 3` starts.
const backendCount = 3

// traceSpanCapacity is each sink's span ring size in traced runs: large
// enough to keep the last few thousand requests' spans of every
// workload, small enough to stay a few tens of MB per sink.
const traceSpanCapacity = 32768

// benchCluster is one fresh gateway with its backends, all in process
// and talking over real loopback listeners.
type benchCluster struct {
	gw       *cluster.Gateway
	backends []*serve.Server
	base     string // gateway base URL

	servers []*http.Server
	serving sync.WaitGroup // one per listener's Serve loop
	stopRun context.CancelFunc
	runDone chan struct{}
}

// startCluster builds the cluster with the settings `hetgate -embedded
// 3` uses (Workers = GOMAXPROCS, Parallelism 1, CacheSize 256, default
// admission, no degrade) plus the shared threshold store st when non-nil.
// With rec non-nil every handler is wrapped by the recorder and the span
// rings are enlarged; the wrapper records only while rec is on.
func startCluster(st *store.Store, rec *recorder) (*benchCluster, error) {
	spanCap := 0
	if rec != nil {
		spanCap = traceSpanCapacity
	}
	c := &benchCluster{}
	urls := make([]string, 0, backendCount)
	for i := 0; i < backendCount; i++ {
		s := serve.New(serve.Config{
			Workers:      runtime.GOMAXPROCS(0),
			Parallelism:  1,
			CacheSize:    serve.DefaultCacheSize,
			SpanCapacity: spanCap,
			Store:        st,
		})
		url, err := c.listen(rec.wrap(i, s.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		c.backends = append(c.backends, s)
		urls = append(urls, url)
	}
	gw, err := cluster.New(cluster.Config{Backends: urls, SpanCapacity: spanCap})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	c.gw = gw
	if c.base, err = c.listen(rec.wrap(gatewayHop, gw.Handler())); err != nil {
		c.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopRun, c.runDone = cancel, make(chan struct{})
	go func() {
		defer close(c.runDone)
		gw.Run(ctx)
	}()
	return c, nil
}

func (c *benchCluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, MaxHeaderBytes: 1 << 20}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the health prober and every listener and waits for the
// prober and the Serve loops to exit. A handler still running, such as
// the losing side of a hedged request, finishes on its own.
func (c *benchCluster) close() {
	if c.stopRun != nil {
		c.stopRun()
		<-c.runDone
	}
	for _, s := range c.servers {
		s.Close()
	}
	c.serving.Wait()
}

// sinks returns the gateway's span sink followed by the backends'.
func (c *benchCluster) sinks() []*obs.Sink {
	out := []*obs.Sink{c.gw.Sink()}
	for _, s := range c.backends {
		out = append(out, s.Sink())
	}
	return out
}

// gatewayHop is the recorder's backend index for the gateway itself.
const gatewayHop = -1

// hop is one handler invocation the recorder timed: which process
// handled it (gatewayHop or a backend index), under which trace, when,
// and how many response bytes it wrote.
type hop struct {
	backend int
	trace   string
	start   time.Time
	dur     time.Duration
	bytes   int64
}

// recorder is the benchmark's own tracing: a middleware around the
// gateway and each backend handler that times every request carrying a
// traceparent header. It adds nothing to the program; a nil recorder
// wraps nothing.
type recorder struct {
	on   atomic.Bool
	mu   sync.Mutex
	hops []hop
}

func (r *recorder) wrap(backend int, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		trace := traceOf(req.Header.Get("traceparent"))
		if !r.on.Load() || trace == "" {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, req)
		hp := hop{backend: backend, trace: trace, start: start, dur: time.Since(start), bytes: cw.n}
		r.mu.Lock()
		r.hops = append(r.hops, hp)
		r.mu.Unlock()
	})
}

// take returns the recorded hops and clears the record.
func (r *recorder) take() []hop {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.hops
	r.hops = nil
	return out
}

// traceOf extracts the trace id from a W3C traceparent header value.
func traceOf(tp string) string {
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return ""
	}
	return parts[1]
}

// countingWriter counts response bytes and keeps streaming responses
// streaming.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
