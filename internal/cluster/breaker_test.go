package cluster

import (
	"testing"
	"time"
)

// fakeClock drives a Breaker's cooldown deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, cooldown)
	c := &fakeClock{t: time.Unix(1000, 0)}
	b.now = c.now
	return b, c
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Record(false)
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
	}
	b.Allow()
	b.Record(false) // third consecutive failure trips it
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if b.Allow() {
		t.Error("open breaker admitted a request before cooldown")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(true) // streak broken
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Errorf("state = %v, want closed (streak was reset)", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, 10*time.Second)
	b.Allow()
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}

	clk.advance(9 * time.Second)
	if b.Allow() {
		t.Fatal("breaker admitted a request mid-cooldown")
	}
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker rejected the half-open probe after cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if b.Allow() {
		t.Error("half-open breaker admitted a second concurrent probe")
	}

	// A failed probe restarts the cooldown.
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Allow() {
		t.Error("breaker admitted a request right after a failed probe")
	}

	// A successful probe closes it.
	clk.advance(11 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted after second cooldown")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Errorf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Error("closed breaker rejected a request")
	}
}

func TestBreakerReleaseFreesProbeSlot(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Allow()
	b.Record(false)
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	// The probe was abandoned (e.g. its caller's deadline passed):
	// without Release the breaker would reject traffic forever.
	b.Release()
	if !b.Allow() {
		t.Error("probe slot not released")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Errorf("state = %v, want half-open", got)
	}
}

func TestBreakerShedStreakTripsAtDoubleThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)

	// Sheds below twice the failure threshold keep the breaker closed:
	// a shedding backend is alive, not dead.
	for i := 0; i < 5; i++ {
		b.Allow()
		b.RecordShed()
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("state after %d sheds = %v, want closed", i+1, got)
		}
	}
	b.Allow()
	b.RecordShed() // sixth consecutive shed = 2*threshold: divert traffic
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 2*threshold sheds = %v, want open", got)
	}
}

func TestBreakerSuccessResetsShedStreak(t *testing.T) {
	b, _ := newTestBreaker(2, time.Minute)
	for i := 0; i < 3; i++ {
		b.Allow()
		b.RecordShed()
	}
	b.Allow()
	b.Record(true) // streak broken
	for i := 0; i < 3; i++ {
		b.Allow()
		b.RecordShed()
	}
	if got := b.State(); got != BreakerClosed {
		t.Errorf("state = %v, want closed (shed streak was reset)", got)
	}
}

func TestBreakerHalfOpenShedReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Allow()
	b.Record(false)
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	// The probe itself was shed: alive but still refusing — back off.
	b.RecordShed()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after shed probe = %v, want open", got)
	}
	if b.Allow() {
		t.Error("breaker admitted a request right after a shed probe")
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
