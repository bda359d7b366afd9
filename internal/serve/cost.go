package serve

import "repro/internal/core"

// simplexCostRounds is the coordinate-descent round count the
// admission estimate assumes for N ≥ 3 partition searches: one
// improving pass plus a confirming pass is the common case, and a
// third covers slow convergence. Deliberately below the searcher's
// DefaultSimplexRounds ceiling — admission is a congestion estimate, not a bound.
const simplexCostRounds = 3

// partitionSearchCost estimates the evaluation cost of an N-device
// simplex search: coordinate descent runs one scalar axis search per
// device but the last, for a few rounds. At N=2 the simplex search is
// defined to run exactly one axis round, so its cost is the scalar
// search cost — partition requests at two devices are admitted exactly
// like scalar ones.
func partitionSearchCost(s core.Searcher, repeats, devices int) int64 {
	cost := searchCost(s, repeats)
	if devices <= 2 {
		return cost
	}
	return cost * int64(devices-1) * simplexCostRounds
}

// searchCost estimates how many threshold evaluations an Identify
// search will perform over the default [0, 100] range, times the
// repeat count — the admission controller's cost unit. It mirrors each
// searcher's grid arithmetic (including zero-value defaults) rather
// than asking the searcher, because the estimate must be O(1) and
// available before any workload is built. Precision is not the point:
// admission only needs exhaustive(step=1)×9 to look ~30× dearer than
// race-then-fine×1, which this delivers.
func searchCost(s core.Searcher, repeats int) int64 {
	if repeats < 1 {
		repeats = 1
	}
	span := 100.0
	var per float64
	switch t := s.(type) {
	case core.Exhaustive:
		step := t.Step
		if step <= 0 {
			step = 1
		}
		per = span/step + 1
	case core.CoarseToFine:
		// Stride-8 sweep, then a ±8 window at stride 1.
		per = (span/8 + 1) + (2*8 + 1)
	case core.RaceThenFine:
		window := t.Window
		if window <= 0 {
			window = 10
		}
		per = 2*window + 2 // stride-1 sweep + the race itself
	case core.GradientDescent:
		// Two probes per step level plus a handful of moves; the
		// descent halves its step until it falls below 1, so the level
		// count is logarithmic and a small constant bound is honest.
		per = 16
	default:
		// Unknown strategy: assume the worst in-tree cost so admission
		// errs toward shedding, not over-committing.
		per = span + 1
	}
	cost := int64(per) * int64(repeats)
	if cost < 1 {
		cost = 1
	}
	return cost
}
