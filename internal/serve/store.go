package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// StoreHeader marks responses whose threshold came through the
// hetstore transfer path, so the gateway can count transfer rates per
// backend without parsing bodies: "skip" for a probe-verified
// transfer, "warm" for a warm-started search.
const StoreHeader = "X-Hetserve-Store"

// storeMeta accumulates what the transfer path learned about a
// request, to be folded into the response.
type storeMeta struct {
	features    store.Features
	hasFeatures bool
	hit         bool
	neighbor    string
	distance    float64
	warm        *core.WarmStart
	// warmSeed is the warm window's center in *sample* threshold
	// space, used to judge whether the warm search stayed interior.
	warmSeed float64
}

// featuresOf returns the structural features of a built workload.
// Dataset features are cached: the replica population is fixed, so the
// O(nnz) scan runs once per (workload, dataset).
func (s *Server) featuresOf(workload, storeKey string, cw core.Sampled) (store.Features, bool) {
	cacheable := strings.HasPrefix(storeKey, "dataset:")
	fkey := workload + "|" + storeKey
	if cacheable {
		s.featMu.Lock()
		f, ok := s.feats[fkey]
		s.featMu.Unlock()
		if ok {
			return f, true
		}
	}
	f, ok := store.FeaturesOf(cw)
	if !ok {
		return store.Features{}, false
	}
	if cacheable {
		s.featMu.Lock()
		s.feats[fkey] = f
		s.featMu.Unlock()
	}
	return f, true
}

// storeLookup consults the threshold store for a transferable
// neighbor, under its own span. It returns the prepared transfer
// state; a miss leaves meta.hit false.
func (s *Server) storeLookup(ctx context.Context, req *request, cw core.Sampled) (meta storeMeta, n store.Neighbor) {
	f, ok := s.featuresOf(req.workload, req.key, cw)
	if !ok {
		return meta, n
	}
	meta.features, meta.hasFeatures = f, true
	_, span := obs.StartSpan(ctx, "store.lookup")
	defer span.Finish()
	n, hit := s.store.Lookup(req.workload, s.platformSig, req.key, f)
	span.SetAttr("hit", strconv.FormatBool(hit))
	if !hit {
		return meta, n
	}
	s.metrics.StoreHits.Inc()
	span.SetAttr("neighbor", n.Entry.Key)
	span.SetAttr("distance", fmt.Sprintf("%.4f", n.Distance))
	meta.hit = true
	meta.neighbor = n.Entry.Key
	meta.distance = n.Distance
	meta.warm = &core.WarmStart{Threshold: n.Entry.Threshold}
	meta.warmSeed = n.Entry.Threshold
	if inv, ok := cw.(core.InverseExtrapolator); ok {
		meta.warmSeed = inv.InverseExtrapolate(n.Entry.Threshold)
	}
	return meta, n
}

// thresholdRange mirrors core's range resolution: the workload's own
// range when it implements Ranger, [0, 100] otherwise.
func thresholdRange(cw core.Sampled) (lo, hi float64) {
	if rg, ok := cw.(core.Ranger); ok {
		return rg.ThresholdRange()
	}
	return 0, 100
}

// probeTransfer verifies a transferred threshold with a cheap probe:
// full-input evaluations at the threshold and one grid step to either
// side. The transfer is accepted when the threshold's cost is within
// the store's tolerance of the best probed point. Returns (resp, true)
// on accept; (nil, false) means the caller should fall back to the
// warm path. Only context/evaluation failures surface as errors. The
// caller holds admission and a worker slot, as for any search.
func (s *Server) probeTransfer(ctx context.Context, req *request, cw core.Sampled, n store.Neighbor, meta storeMeta) (*EstimateResponse, bool, error) {
	_, span := obs.StartSpan(ctx, "store.probe")
	defer span.Finish()
	s.metrics.StoreProbes.Inc()
	lo, hi := thresholdRange(cw)
	t := n.Entry.Threshold
	if t < lo {
		t = lo
	}
	if t > hi {
		t = hi
	}
	span.SetAttr("threshold", fmt.Sprintf("%.2f", t))

	// Probe points: the transferred threshold ± one grid step,
	// clamped and deduplicated.
	points := []float64{t}
	if t-1 >= lo {
		points = append(points, t-1)
	}
	if t+1 <= hi {
		points = append(points, t+1)
	}
	costs := make([]time.Duration, len(points))
	for i, p := range points {
		if err := ctx.Err(); err != nil {
			span.RecordError(err)
			return nil, false, err
		}
		// No evaluate span per point: three spans would cost a probe
		// about 45 allocations, a tenth of a batch item's.
		d, _, err := s.evaluateMemo(req, cw, p, nil)
		if err != nil {
			err = fmt.Errorf("probing %s at %.2f: %w", cw.Name(), p, err)
			span.RecordError(err)
			return nil, false, err
		}
		costs[i] = d
	}
	others := make([]int64, 0, len(costs)-1)
	var overhead time.Duration
	for _, c := range costs[1:] {
		others = append(others, int64(c))
		overhead += c
	}
	if !s.store.AcceptProbe(int64(costs[0]), others...) {
		span.SetAttr("accepted", "false")
		s.metrics.StoreRejects.Inc()
		s.store.Observe(req.workload, n.Entry.Key, false)
		return nil, false, nil
	}
	span.SetAttr("accepted", "true")
	s.metrics.StoreSkips.Inc()
	s.store.Observe(req.workload, n.Entry.Key, true)
	// The probe verified this threshold on *this* input at full
	// scale: record it under the input's own key so future neighbors
	// can transfer from it directly.
	s.store.Put(req.workload, req.key, s.platformSig, meta.features, t, int64(costs[0]))

	resp := newResponse(req, req.repeats, len(points), 0, overhead, costs[0])
	resp.Threshold = t
	resp.StoreHit = true
	resp.Transferred = true
	resp.StoreNeighbor = meta.neighbor
	resp.StoreDistance = meta.distance
	resp.Features = meta.features.String()
	s.cache.Put(req.cacheKey, resp)
	return &resp, true, nil
}

// observeWarmOutcome feeds a completed warm-started search back into
// the neighbor's confidence: a search that settled in the interior of
// the warm window confirms the transferred threshold's neighborhood;
// one that ran into the window's edge suggests the true optimum lies
// outside, which counts against the neighbor.
func (s *Server) observeWarmOutcome(workload string, n store.Neighbor, meta storeMeta, est *core.Estimate) {
	const win = core.DefaultWarmWindow
	interior := est.SampleThreshold > meta.warmSeed-win && est.SampleThreshold < meta.warmSeed+win
	s.store.Observe(workload, n.Entry.Key, interior)
}
