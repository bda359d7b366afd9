package hetsim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase names used by the workloads; free-form strings are allowed,
// these are just the conventional ones.
const (
	PhasePartition = "partition"
	PhaseCompute   = "compute"
	PhaseMerge     = "merge"
	PhaseTransfer  = "transfer"
)

// TraceEntry is one timed phase of a heterogeneous execution.
type TraceEntry struct {
	Phase    string
	Device   string // "cpu", "gpu", "link", ...
	Duration time.Duration
}

// Trace accumulates the simulated timeline of one heterogeneous run:
// each workload's Run result carries its own, phase by phase and
// device by device. The zero value is ready to use. A Trace belongs to
// the one run that fills it, so it is not safe for concurrent use.
type Trace struct {
	Entries []TraceEntry
}

// Add records a phase.
func (t *Trace) Add(phase, device string, d time.Duration) {
	t.Entries = append(t.Entries, TraceEntry{Phase: phase, Device: device, Duration: d})
}

// String renders the trace as an aligned per-phase summary.
func (t *Trace) String() string {
	totals := map[string]time.Duration{}
	order := []string{}
	var grand time.Duration
	for _, e := range t.Entries {
		key := e.Phase + "/" + e.Device
		if _, ok := totals[key]; !ok {
			order = append(order, key)
		}
		totals[key] += e.Duration
		grand += e.Duration
	}
	sort.Strings(order)
	var sb strings.Builder
	for _, key := range order {
		fmt.Fprintf(&sb, "%-24s %12v\n", key, totals[key])
	}
	fmt.Fprintf(&sb, "%-24s %12v\n", "total", grand)
	return sb.String()
}
