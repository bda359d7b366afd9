package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder lists the tail percentiles the benchmark reports, highest
// first; tailPercentile picks the highest one the sample count supports.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailLadder that has
// at least ten samples beyond it, so a reported tail is never one or two
// outliers; with fewer than 20 samples it falls back to the median. It
// returns the percentile and its value.
func tailPercentile(xs []float64) (p, v float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 50, percentile(xs, 50)
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4)), which is
// how run-to-run spread is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := i * (n + 1) // position m/4, 1-based
		j := m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(m-j*4) / 4
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// windowMedian returns the median of per-window rates: count[i] events
// over a window of length w each.
func windowMedian(counts []int, w time.Duration) float64 {
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / w.Seconds()
	}
	return median(rates)
}

// span is one timed interval of a trace: a program span read from a
// sink, or an interval the benchmark recorded around a handler.
type span struct {
	id, parent string
	trace      string
	name       string
	start      time.Time
	dur        time.Duration
}

func (s span) end() time.Time { return s.start.Add(s.dur) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (clipped to the parent, with
// overlapping children counted once). A span whose children are missing
// keeps its whole duration; a child whose parent is missing is simply a
// root. The result is keyed by span id.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[string][]span, len(spans))
	for _, s := range spans {
		if s.parent != "" {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur - coverage(s.start, s.end(), children[s.id])
	}
	return out
}

// coverage returns how much of [lo, hi) the union of the intervals
// covers.
func coverage(lo, hi time.Time, ivs []span) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	clipped := make([]iv, 0, len(ivs))
	for _, c := range ivs {
		a, b := c.start, c.end()
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a.Before(clipped[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, c := range clipped {
		if i == 0 || c.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = c.a, c.b
			continue
		}
		if c.b.After(curB) {
			curB = c.b
		}
	}
	total += curB.Sub(curA)
	return total
}
