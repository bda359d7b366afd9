package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
)

// StoreHeader marks responses whose threshold came through the
// hetstore transfer path, so the gateway can count transfer rates per
// backend without parsing bodies: "skip" for a probe-verified
// transfer, "warm" for a warm-started search.
const StoreHeader = "X-Hetserve-Store"

// FeaturesHeader carries an input's structural feature vector in
// store.Features wire form. On responses hetserve stamps the features
// it computed; on requests it is an advisory hint (a client or
// gateway that already knows the features of an upload saves the
// server the recomputation — the hint only steers the store lookup,
// never the estimate itself).
const FeaturesHeader = "X-Het-Features"

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

// featuresOf returns the structural features of a built workload,
// preferring a well-formed advisory hint (store.Features wire form; a
// malformed one is ignored). Dataset features are cached: the replica
// population is fixed, so the O(nnz) scan runs once per (workload,
// dataset).
func (s *Server) featuresOf(workload, storeKey string, cw core.Sampled, hint string) (store.Features, bool) {
	if hint != "" {
		if f, err := store.ParseFeatures(hint); err == nil {
			return f, true
		}
	}
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
	f, ok := s.featuresOf(req.workload, req.key, cw, req.features)
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
	span.SetAttr("drifted", strconv.FormatBool(n.Drifted))
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
// side, admitted at probeCost (not the full search cost — under
// overload the probe fits where a fresh Identify would shed). The
// transfer is accepted when the threshold's cost is within the store's
// tolerance of the best probed point. Returns (resp, true) on accept;
// (nil, false) means the caller should fall back to the warm path.
// Only context/evaluation failures surface as errors. admitted callers
// (batch items, whose job already holds aggregate admission) skip the
// probe's own admission so one item is never charged twice.
func (s *Server) probeTransfer(ctx context.Context, req *request, cw core.Sampled, n store.Neighbor, meta storeMeta, admitted bool) (*EstimateResponse, bool, error) {
	_, span := obs.StartSpan(ctx, "store.probe")
	defer span.Finish()
	if !admitted {
		err := s.admission.Acquire(ctx, probeCost)
		if err != nil {
			if errors.Is(err, resilience.ErrOverloaded) {
				// The probe itself was shed: fall through to the warm
				// path, whose full-cost admission resolves the overload
				// honestly (shed → degrade upstream).
				span.SetAttr("shed", "true")
				return nil, false, nil
			}
			span.RecordError(err)
			return nil, false, fmt.Errorf("waiting for probe admission: %w", err)
		}
		defer s.admission.Release(probeCost)
	}

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
		if s.store.Observe(req.workload, n.Entry.Key, false) {
			s.scheduleReestimate(req.workload, n.Entry.Key)
		}
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
	s.cache.Put(req.cacheKey, cacheEntry{resp: resp, at: time.Now()})
	return &resp, true, nil
}

// observeWarmOutcome feeds a completed warm-started search back into
// the neighbor's confidence: a search that settled in the interior of
// the warm window confirms the transferred threshold's neighborhood;
// one that ran into the window's edge suggests the true optimum lies
// outside, which counts against the neighbor.
func (s *Server) observeWarmOutcome(workload string, n store.Neighbor, meta storeMeta, est *core.Estimate) {
	win := meta.warm.Window
	if win <= 0 {
		win = core.DefaultWarmWindow
	}
	interior := est.SampleThreshold > meta.warmSeed-win && est.SampleThreshold < meta.warmSeed+win
	if s.store.Observe(workload, n.Entry.Key, interior) {
		// Confidence fell below the floor: refresh in the background.
		s.scheduleReestimate(workload, n.Entry.Key)
	}
}

// scheduleReestimate refreshes a store entry's threshold in the
// background: a full (cold) pipeline run through the same admission
// and pool gates as foreground traffic, at low priority — under load
// the admission queue sheds it silently and the entry waits for a
// quieter moment. Only dataset-backed entries can re-estimate (upload
// bodies are not retained). Concurrent requests for the same entry
// coalesce.
func (s *Server) scheduleReestimate(workload, storeKey string) {
	name, ok := strings.CutPrefix(storeKey, "dataset:")
	if !ok {
		return
	}
	flightKey := "reestimate|" + workload + "|" + storeKey
	go func() {
		_, _, _ = s.reestimates.Do(flightKey, func() (any, error) {
			s.metrics.StoreReestimates.Inc()
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
			defer cancel()
			err := s.reestimate(ctx, workload, name, storeKey)
			if err != nil && !errors.Is(err, resilience.ErrOverloaded) {
				s.logger.Warn("store re-estimation failed",
					slog.String("workload", workload),
					slog.String("input", storeKey),
					slog.Any("err", err))
			}
			return nil, nil
		})
	}()
}

// reestimate runs one background refresh: cold search with the
// workload's default searcher, then a store update with the verified
// threshold.
func (s *Server) reestimate(ctx context.Context, workload, dataset, storeKey string) error {
	searcher, err := searcherFor(workload, "")
	if err != nil {
		return err
	}
	cost := searchCost(searcher, 1)
	if err := s.admission.Acquire(ctx, cost); err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			s.metrics.Shed.Inc()
		}
		return err
	}
	defer s.admission.Release(cost)
	if err := s.pool.Acquire(ctx); err != nil {
		return err
	}
	defer s.pool.Release()

	req := &request{workload: workload, input: dataset, platform: s.platform}
	w, err := s.buildWorkload(ctx, req)
	if err != nil {
		return err
	}
	cw := w.(core.Sampled)
	f, ok := s.featuresOf(workload, storeKey, cw, "")
	if !ok {
		return fmt.Errorf("workload %s exposes no features", workload)
	}
	ctx = core.WithEvalObserver(ctx, s.metrics)
	est, err := core.EstimateThreshold(ctx, cw, core.Config{
		Searcher:    searcher,
		Seed:        reestimateSeed,
		Repeats:     1,
		Parallelism: s.cfg.Parallelism,
	})
	if err != nil {
		return err
	}
	runTime, err := s.evaluate(ctx, req, cw, est.Threshold, nil)
	if err != nil {
		return err
	}
	s.store.Put(workload, storeKey, s.platformSig, f, est.Threshold, int64(runTime))
	return nil
}

// reestimateSeed is the fixed seed background refreshes use, so
// re-estimated entries are reproducible across replicas.
const reestimateSeed = 1
