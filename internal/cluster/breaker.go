package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits all traffic (healthy backend).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects all traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker defaults.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// Breaker is a three-state circuit breaker guarding one backend.
// Consecutive failures trip it open; after the cooldown it half-opens
// and admits exactly one probe, whose outcome either closes it or
// restarts the cooldown. Both real requests and the /healthz prober
// feed it, so a dead backend is detected even with zero traffic on its
// key range.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	state     BreakerState
	failures  int
	sheds     int
	openedAt  time.Time
	probing   bool
	now       func() time.Time // test hook
}

// NewBreaker returns a closed breaker; threshold <= 0 means
// DefaultBreakerThreshold, cooldown <= 0 means DefaultBreakerCooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. In the half-open state
// only one caller at a time gets true — that caller's Record decides
// the breaker's fate, and everyone else is rejected until it lands.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of a request admitted by Allow. Success
// closes the breaker from any state; failure re-opens a half-open
// breaker immediately and trips a closed one after threshold
// consecutive failures.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.state = BreakerClosed
		b.failures = 0
		b.sheds = 0
		return
	}
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = b.now()
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// RecordShed reports that the backend answered with backpressure (a
// 429 admission shed, or a shed item inside a batch). A shedding
// backend is alive — its admission controller is doing exactly its
// job — so sheds feed a separate streak that trips the breaker only
// after twice the failure threshold: sustained total refusal should
// still divert traffic, but a burst of sheds must not be mistaken for
// a dead replica the way transport failures are.
func (b *Breaker) RecordShed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if b.state == BreakerHalfOpen {
		// Alive but still refusing the probe: keep backing off.
		b.state = BreakerOpen
		b.openedAt = b.now()
		return
	}
	b.sheds++
	if b.sheds >= 2*b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.sheds = 0
	}
}

// Release returns an admitted request's probe slot without recording
// an outcome — used when the caller abandoned the request (its
// deadline passed or its client went away), which says nothing about
// the backend's health.
// Without it a half-open breaker whose probe was cancelled would
// reject traffic forever.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State returns the current position without consuming a probe slot.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
