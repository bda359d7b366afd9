package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/store"
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runWorkload runs one workload: set-up (repeated, timed), warm-up,
// measurement, teardown, then the answer checks. With -trace 1 the
// measured time is split in half: an untraced half, then a traced half
// whose spans, counters and handler timings give the per-layer metrics.
func runWorkload(name string, e *env, o options) (*result, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if o.trace == 1 {
		rec = &recorder{}
	}
	bt, _ := w.(*batchTraffic)
	var c *benchCluster
	teardown := func() {
		if c != nil {
			c.close()
			c = nil
		}
		if bt != nil {
			bt.closeStore()
		}
	}
	defer teardown()

	// Each set-up starts from nothing: a fresh store, a fresh cluster,
	// the workload's own preparation. All but the last are torn down.
	// Each is timed right after a host-speed measurement it is scaled by.
	cal := newCalibrator()
	var setups, setupsRaw []float64
	for s := 0; s < o.setups; s++ {
		teardown()
		speed := cal.speed()
		t0 := time.Now()
		var st *store.Store
		if bt != nil {
			if st, err = bt.openStore(); err != nil {
				return nil, err
			}
		}
		if c, err = startCluster(st, rec); err != nil {
			return nil, err
		}
		if err := w.setup(c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(t0).Seconds()
		setupsRaw = append(setupsRaw, raw)
		setups = append(setups, raw*speed/referenceSpeed)
	}

	cl := newClient(c.base, w, o.clients)
	defer cl.close()
	warm := cl.run(seconds(o.warmup), 1, nil, false)
	failures := warm.failures

	var m *phaseResult
	var li *layerInput
	winLen := seconds(o.seconds / float64(o.windows))
	if o.trace == 1 {
		half := (o.windows + 1) / 2
		m = cl.run(winLen, half, cal, false)
		li = &layerInput{untraced: m, before: snapshot(c, bt)}
		rec.on.Store(true)
		cl.traced.Store(true)
		li.traced = cl.run(winLen, half, cal, true)
		rec.on.Store(false)
		cl.traced.Store(false)
		li.after = snapshot(c, bt)
		li.spans, li.cutoff = collectSpans(c)
		li.hops = rec.take()
		failures += li.traced.failures
	} else {
		m = cl.run(winLen, o.windows, cal, false)
	}
	failures += m.failures
	cl.close()
	teardown()

	wrong, gap, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("checking answers: %w", err)
	}
	failures += wrong
	r := &result{name: name, failed: failures, attempted: m.answers + m.failures}
	e2e, extra := e2eMetrics(setups, setupsRaw, m, gap, tailPercentiles[name])
	if o.trace == 1 {
		r.attempted += li.traced.answers + li.traced.failures
		var spans map[string]metric
		if r.metrics, spans, err = layerMetrics(w, li); err != nil {
			return nil, err
		}
		r.extra = e2e
		for _, m := range []map[string]metric{extra, spans} {
			for k, v := range m {
				r.extra[k] = v
			}
		}
	} else {
		r.metrics, r.extra = e2e, extra
	}
	if r.attempted > 0 {
		r.extra["fail_ratio"] = metric{float64(r.failed) / float64(r.attempted), "ratio"}
	}
	return r, nil
}

// tailPercentiles fixes each workload's reported latency tail: the
// highest percentile that keeps at least ten samples beyond it in a
// 12-second run at the seed commit's throughput (upload-cold answers
// ~40 requests/s and batch-store ~30 jobs/s, too few for p98). Fixing it
// per workload keeps parent and change comparable even when a change
// moves the sample count.
var tailPercentiles = map[string]float64{"cold-datasets": 99, "hot-repeat": 99, "upload-cold": 95, "batch-store": 95}

// e2eMetrics computes the end-to-end metrics of a measured phase, and
// the numbers that qualify them. Times are scaled to referenceSpeed and
// printed unscaled beside.
func e2eMetrics(setups, setupsRaw []float64, m *phaseResult, gap, tailP float64) (e2e, extra map[string]metric) {
	per := func(x float64) float64 {
		if m.answers == 0 {
			return 0
		}
		return x / float64(m.answers)
	}
	e2e = map[string]metric{
		"setup_s":             {median(setups), "s"},
		"throughput_rps":      {m.throughput(), "1/s"},
		"latency_p50_ms":      {m.latencyP50(), "ms"},
		"allocs_per_answer":   {per(float64(m.allocs)), "count"},
		"alloc_kb_per_answer": {per(m.allocKB), "KiB"},
		"heap_peak_mb":        {m.heapPeak, "MiB"},
		"estimate_gap_pct":    {gap, "%"},
	}
	extra = map[string]metric{
		"latency_tail_ms":         {percentile(m.latencyMS, tailP), "ms"},
		"latency_samples":         {float64(len(m.latencyMS)), "count"},
		"latency_tail_percentile": {tailP, "%"},
		"host_speed":              {m.hostSpeed(), "blocks/s"},
		"setup_unscaled_s":        {median(setupsRaw), "s"},
		"throughput_unscaled_rps": {windowMedian(m.perWindow, m.winLen), "1/s"},
		"latency_p50_unscaled_ms": {percentile(m.latencyMS, 50), "ms"},
	}
	return e2e, extra
}

// stability repeats the whole run with seeds seed, seed+1, ... and
// prints, per workload and metric, the median, the quartiles and the
// spreads the bounds in BENCHMARK.json are set from.
func stability(o options, names []string) (bool, error) {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	ok := true
	for i := 0; i < o.runs; i++ {
		oo := o
		oo.seed = o.seed + uint64(i)
		results, err := runAll(oo, names)
		if err != nil {
			return false, err
		}
		for _, r := range results {
			ok = ok && r.failed == 0
			if values[r.name] == nil {
				values[r.name] = map[string][]float64{}
			}
			for k, m := range r.metrics {
				values[r.name][k] = append(values[r.name][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	fmt.Printf("\nspread over %d runs, seeds %d..%d\n", o.runs, o.seed, o.seed+uint64(o.runs)-1)
	fmt.Println("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, n := range names {
		keys := make([]string, 0, len(values[n]))
		for k := range values[n] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := values[n][k]
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.1f%% | %.1f%% |\n",
				n, k, units[k], med, q1, q3, 100*rel(q3-q1, med), 100*rel(hi-lo, med))
		}
	}
	return ok, nil
}

// rel is x as a share of base (0 when base is 0).
func rel(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return math.Abs(x / base)
}
