package cluster

import (
	"io"
	"testing"
	"time"
)

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestScrapeHoldsNoLock stalls a scrape inside its writer (a scraper
// that stopped reading) and inside the breaker-state callback; an
// upstream call finishing meanwhile must still record and return.
func TestScrapeHoldsNoLock(t *testing.T) {
	for _, stall := range []string{"writer", "callback"} {
		t.Run(stall, func(t *testing.T) {
			m := NewMetrics()
			entered, release := make(chan struct{}, 1), make(chan struct{})
			block := func() {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-release
			}
			var w io.Writer = io.Discard
			if stall == "writer" {
				w = writerFunc(func(p []byte) (int, error) { block(); return len(p), nil })
			} else {
				m.breakerStates = func() map[string]BreakerState { block(); return nil }
			}
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				m.WriteTo(w)
			}()
			<-entered
			recorded := make(chan struct{})
			go func() {
				defer close(recorded)
				m.Upstream("http://10.0.0.1:8080", 200, time.Millisecond)
			}()
			select {
			case <-recorded:
			case <-time.After(5 * time.Second):
				t.Error("Upstream blocked behind a stalled scrape")
			}
			close(release)
			<-scraped
			<-recorded
		})
	}
}
