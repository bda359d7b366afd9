package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// Embedded runs K in-process hetserve backends on loopback listeners,
// so a full gateway+cluster topology is exercised by `go test` (and
// hetgate -embedded) with no external processes. Each backend is
// a real serve.Server behind a real TCP listener — the gateway talks
// to it over HTTP exactly as it would to a remote replica.
type Embedded struct {
	backends []*embeddedBackend
}

type embeddedBackend struct {
	url string
	srv *http.Server
	s   *serve.Server

	mu      sync.Mutex
	stopped bool
}

// StartEmbedded launches k hetserve backends with the given config on
// 127.0.0.1 ephemeral ports. Callers must Close the result.
func StartEmbedded(k int, cfg serve.Config) (*Embedded, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: embedded backend count %d, want > 0", k)
	}
	e := &Embedded{}
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("cluster: listening for embedded backend %d: %w", i, err)
		}
		s := serve.New(cfg)
		srv := &http.Server{
			Handler: s.Handler(),
			// Same hardening as the standalone daemons: bound header
			// reads so an idle connection cannot camp forever.
			ReadHeaderTimeout: 10 * time.Second,
			MaxHeaderBytes:    1 << 20,
		}
		b := &embeddedBackend{
			url: "http://" + ln.Addr().String(),
			srv: srv,
			s:   s,
		}
		go srv.Serve(ln)
		e.backends = append(e.backends, b)
	}
	return e, nil
}

// URLs returns the backend base URLs in start order.
func (e *Embedded) URLs() []string {
	out := make([]string, len(e.backends))
	for i, b := range e.backends {
		out[i] = b.url
	}
	return out
}

// Server returns backend i's serve.Server for metrics inspection.
func (e *Embedded) Server(i int) *serve.Server { return e.backends[i].s }

// Stop kills backend i abruptly — listeners and live connections are
// closed immediately, simulating a crashed replica. Idempotent.
func (e *Embedded) Stop(i int) {
	b := e.backends[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return
	}
	b.stopped = true
	b.srv.Close()
}

// Close stops every backend still running.
func (e *Embedded) Close() {
	for i := range e.backends {
		e.Stop(i)
	}
}
