package hetsim

import (
	"sync"
	"testing"
	"time"
)

// TestTraceConcurrentAdd hammers one Trace from many goroutines while
// others read it; run under -race this is the regression test for an
// unsynchronized append.
func TestTraceConcurrentAdd(t *testing.T) {
	const (
		workers = 8
		perG    = 500
	)
	var tr Trace
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Add(PhaseCompute, "cpu", time.Microsecond)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG/10; i++ {
				_ = tr.Snapshot()
				_ = tr.String()
			}
		}()
	}
	wg.Wait()
	entries := tr.Snapshot()
	if len(entries) != workers*perG {
		t.Errorf("entries = %d, want %d", len(entries), workers*perG)
	}
	var total time.Duration
	for _, e := range entries {
		total += e.Duration
	}
	if total != workers*perG*time.Microsecond {
		t.Errorf("total = %v", total)
	}
}
