package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the synthetic transport failure produced by an
// errors= rule; it unwraps from every injected error so tests and
// metrics can tell chaos from genuine failures.
var ErrInjected = errors.New("resilience: injected fault")

// Rule is one fault-injection rule. A request matches when both the
// backend index and the URL path filters accept it; every matching
// rule fires independently, in declaration order.
type Rule struct {
	// Backend selects which backend the rule applies to, as an index
	// into the cluster's backend list (the order of -backends /
	// -embedded). Negative matches every backend.
	Backend int
	// Path restricts the rule to one exact URL path ("" matches all).
	// The chaos jobs usually leave this empty so health probes are
	// faulted too — a stalling backend stalls its /healthz as well.
	Path string
	// Latency is added before the request is forwarded.
	Latency time.Duration
	// ErrorRate is the probability ∈ [0, 1] of failing the request
	// outright with a transport error.
	ErrorRate float64
	// StallRate is the probability of holding the request for Stall
	// before failing it — the "backend accepted the connection and went
	// quiet" failure mode that timeouts, not error handling, must catch.
	StallRate float64
	// Stall is the hold time for StallRate hits; <= 0 means 5s.
	Stall time.Duration
	// DripBytes > 0 relays the response body in chunks of that many
	// bytes with DripDelay between chunks (a slow-drip body).
	DripBytes int
	// DripDelay is the inter-chunk pause; <= 0 means 20ms.
	DripDelay time.Duration
}

func (r Rule) matches(backend int, path string) bool {
	if r.Backend >= 0 && r.Backend != backend {
		return false
	}
	if r.Path != "" && r.Path != path {
		return false
	}
	return true
}

func (r Rule) stall() time.Duration {
	if r.Stall <= 0 {
		return 5 * time.Second
	}
	return r.Stall
}

func (r Rule) dripDelay() time.Duration {
	if r.DripDelay <= 0 {
		return 20 * time.Millisecond
	}
	return r.DripDelay
}

// Faults applies a rule set with a seeded RNG, so two runs with the
// same seed, rules and request sequence inject the same faults — the
// chaos-test analogue of cluster.Config.Seed's reproducible backoff.
type Faults struct {
	rules []Rule

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]uint64 // kind ("latency"|"error"|"stall"|"drip") → fires
}

// NewFaults builds a fault injector over rules; seed 0 means 1.
func NewFaults(seed int64, rules ...Rule) *Faults {
	if seed == 0 {
		seed = 1
	}
	return &Faults{
		rules:  rules,
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[string]uint64),
	}
}

// ParseFaults parses a -faults flag value into an injector. Rules are
// separated by '|', fields within a rule by ';':
//
//	backend=1;latency=200ms;errors=0.3
//	backend=0;errors=0.5 | backend=2;stalls=0.1;stall=2s
//	path=/estimate;drip=512;drip-delay=50ms
//
// Fields: backend=<index|*>, path=</path>, latency=<dur>,
// errors=<0..1>, stalls=<0..1>, stall=<dur>, drip=<bytes>,
// drip-delay=<dur>. Indexes, durations and drip sizes must not be
// negative. An empty spec returns (nil, nil) — no injector.
func ParseFaults(spec string, seed int64) (*Faults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, rs := range strings.Split(spec, "|") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		r := Rule{Backend: -1}
		for _, field := range strings.Split(rs, ";") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("resilience: bad fault field %q (want key=value)", field)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			var err error
			switch k {
			case "backend":
				if v == "*" {
					r.Backend = -1
				} else if r.Backend, err = strconv.Atoi(v); err != nil || r.Backend < 0 {
					return nil, fmt.Errorf("resilience: bad backend %q (want an index or *)", v)
				}
			case "path":
				r.Path = v
			case "latency":
				if r.Latency, err = parseDuration(k, v); err != nil {
					return nil, err
				}
			case "errors":
				if r.ErrorRate, err = parseRate(v); err != nil {
					return nil, err
				}
			case "stalls":
				if r.StallRate, err = parseRate(v); err != nil {
					return nil, err
				}
			case "stall":
				if r.Stall, err = parseDuration(k, v); err != nil {
					return nil, err
				}
			case "drip":
				if r.DripBytes, err = strconv.Atoi(v); err != nil || r.DripBytes < 0 {
					return nil, fmt.Errorf("resilience: bad drip %q", v)
				}
			case "drip-delay":
				if r.DripDelay, err = parseDuration(k, v); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("resilience: unknown fault field %q", k)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return NewFaults(seed, rules...), nil
}

// parseRate accepts a probability in [0, 1]; NaN is outside it.
func parseRate(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f >= 0 && f <= 1) {
		return 0, fmt.Errorf("resilience: bad rate %q (want 0..1)", v)
	}
	return f, nil
}

// parseDuration accepts a non-negative duration for field k.
func parseDuration(k, v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("resilience: bad %s %q: %v", k, v, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("resilience: bad %s %q (must not be negative)", k, v)
	}
	return d, nil
}

// Counts snapshots how many times each fault kind has fired.
func (f *Faults) Counts() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

func (f *Faults) fire(kind string) {
	f.mu.Lock()
	f.counts[kind]++
	f.mu.Unlock()
}

// roll draws one uniform [0,1) decision from the seeded RNG.
func (f *Faults) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// decision is what the matching rules resolved to for one request. The
// random draws happen up front, under one lock, so the injected
// sequence depends only on request order, never on sleep timing.
type decision struct {
	latency time.Duration
	stall   time.Duration
	fail    bool
	drip    int
	dripGap time.Duration
}

func (f *Faults) decide(backend int, path string) decision {
	var d decision
	for _, r := range f.rules {
		if !r.matches(backend, path) {
			continue
		}
		if r.Latency > 0 {
			d.latency += r.Latency
			f.fire("latency")
		}
		if r.StallRate > 0 && f.roll() < r.StallRate {
			d.stall = r.stall()
			f.fire("stall")
		}
		if r.ErrorRate > 0 && f.roll() < r.ErrorRate {
			d.fail = true
			f.fire("error")
		}
		if r.DripBytes > 0 {
			d.drip = r.DripBytes
			d.dripGap = r.dripDelay()
			f.fire("drip")
		}
	}
	return d
}

// delay sleeps for d, returning early with ctx.Err() on cancellation.
func delay(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Transport wraps base with fault injection on the client side. index
// maps each outgoing request to a backend index for rule matching
// (return a negative value for "unknown"; only backend=* rules match
// then). A nil base means http.DefaultTransport.
func (f *Faults) Transport(base http.RoundTripper, index func(*http.Request) int) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{f: f, base: base, index: index}
}

type faultTransport struct {
	f     *Faults
	base  http.RoundTripper
	index func(*http.Request) int
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	idx := -1
	if t.index != nil {
		idx = t.index(req)
	}
	d := t.f.decide(idx, req.URL.Path)
	ctx := req.Context()
	if err := delay(ctx, d.latency); err != nil {
		return nil, err
	}
	if d.stall > 0 {
		if err := delay(ctx, d.stall); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("backend %d stalled %v: %w", idx, d.stall, ErrInjected)
	}
	if d.fail {
		return nil, fmt.Errorf("backend %d: %w", idx, ErrInjected)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.drip > 0 && resp.Body != nil {
		resp.Body = &dripReader{ctx: ctx, rc: resp.Body, chunk: d.drip, gap: d.dripGap}
	}
	return resp, nil
}

// dripReader throttles body reads to chunk bytes per gap, simulating a
// backend that answers promptly but trickles its payload.
type dripReader struct {
	ctx     context.Context
	rc      io.ReadCloser
	chunk   int
	gap     time.Duration
	started bool
}

func (d *dripReader) Read(p []byte) (int, error) {
	if d.started {
		if err := delay(d.ctx, d.gap); err != nil {
			return 0, err
		}
	}
	d.started = true
	if len(p) > d.chunk {
		p = p[:d.chunk]
	}
	return d.rc.Read(p)
}

func (d *dripReader) Close() error { return d.rc.Close() }
