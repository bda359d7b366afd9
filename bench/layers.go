package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/serve"
)

// Per-layer metrics come from four sources, all outside the program:
// the recorder's handler timings (wrapper), the program's own spans read
// from its sinks (span), the program's exported counters (counter), and
// direct calls of a module's public functions on the workload's inputs
// (replay, see replay.go).

// layerInput is what a traced run collected.
type layerInput struct {
	untraced, traced *phaseResult
	before, after    counters
	spans            []span
	cutoff           time.Time // requests starting earlier may have lost spans to the rings
	hops             []hop
}

// counters is a snapshot of every counter the per-layer metrics use.
type counters struct {
	retries, hedges, gwCoalesced float64
	subBatches                   float64
	cacheHits, cacheMisses       float64
	buildHits, buildMisses       float64
	shed, degraded               float64
	evals                        float64
	storeWarm, storeSkips        float64
	storeProbes, storeRejects    float64
	spans                        float64
	logBytes                     float64
	gcCPU, totalCPU              float64
	heapLive                     float64
}

// snapshot reads the counters of the cluster, the store log and the Go
// runtime.
func snapshot(c *benchCluster, bt *batchTraffic) counters {
	var s counters
	r, h, co := c.gw.Metrics().Counts()
	s.retries, s.hedges, s.gwCoalesced = float64(r), float64(h), float64(co)
	var buf bytes.Buffer
	if _, err := c.gw.Metrics().WriteTo(&buf); err == nil {
		s.subBatches = promSum(buf.Bytes(), "hetgate_fanout_subbatches_total")
	}
	for _, b := range c.backends {
		m := b.Metrics()
		hits, misses, _ := m.CacheCounts()
		bh, bm := m.BuildCounts()
		shed, degraded, _, _ := m.ResilienceCounts()
		_, warm, skips, probes, rejects, _ := m.StoreCounts()
		s.cacheHits += float64(hits)
		s.cacheMisses += float64(misses)
		s.buildHits += float64(bh)
		s.buildMisses += float64(bm)
		s.shed += float64(shed)
		s.degraded += float64(degraded)
		s.evals += float64(m.EvalsTotal())
		s.storeWarm += float64(warm)
		s.storeSkips += float64(skips)
		s.storeProbes += float64(probes)
		s.storeRejects += float64(rejects)
	}
	for _, k := range c.sinks() {
		_, total := k.Stats()
		s.spans += float64(total)
	}
	if bt != nil {
		s.logBytes = float64(bt.logBytes())
	}
	rs := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(rs)
	s.gcCPU, s.totalCPU = rs[0].Value.Float64(), rs[1].Value.Float64()
	s.heapLive = float64(rs[2].Value.Uint64())
	return s
}

// promSum adds up every sample of a metric family in Prometheus text.
func promSum(text []byte, family string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// collectSpans reads every sink's ring. A ring that wrapped has dropped
// its oldest spans; requests that started before the newest such drop
// are left out of span-based metrics (see layerInput.cutoff).
func collectSpans(c *benchCluster) ([]span, time.Time) {
	var out []span
	var cutoff time.Time
	for _, k := range c.sinks() {
		recs := k.Spans()
		stored, total := k.Stats()
		if uint64(stored) < total && len(recs) > 0 {
			// Rings evict in finish order: every span that finished
			// after the oldest survivor is still there.
			first := recs[0].Start.Add(time.Duration(recs[0].DurationMS * 1e6))
			if first.After(cutoff) {
				cutoff = first
			}
		}
		for _, r := range recs {
			out = append(out, span{id: r.SpanID, parent: r.ParentID, trace: r.TraceID, name: r.Name,
				start: r.Start, dur: time.Duration(r.DurationMS * 1e6)})
		}
	}
	return out, cutoff
}

func (l *layerInput) delta(f func(c counters) float64) float64 { return f(l.after) - f(l.before) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// handlerLayers derives the wrapper-based metrics: the gateway's self
// time (its handler time not covered by any backend handler of the same
// trace), the backend handler time and response size, and the residual
// the client saw outside every handler.
func handlerLayers(l *layerInput) (gwSelf, gwSelfPost, handler, respBytes, residual []float64) {
	byTrace := map[string][]hop{}
	for _, h := range l.hops {
		byTrace[h.trace] = append(byTrace[h.trace], h)
		if h.backend != gatewayHop {
			handler = append(handler, ms(h.dur))
			respBytes = append(respBytes, float64(h.bytes))
		}
	}
	for _, o := range l.traced.outcomes {
		hs := byTrace[o.trace]
		var gw *hop
		var inner []span
		for i := range hs {
			if hs[i].backend == gatewayHop {
				gw = &hs[i]
			} else {
				inner = append(inner, span{start: hs[i].start, dur: hs[i].dur})
			}
		}
		if gw == nil || o.err != nil {
			continue
		}
		self := gw.dur - coverage(gw.start, gw.start.Add(gw.dur), inner)
		gwSelf = append(gwSelf, ms(self))
		if o.post {
			gwSelfPost = append(gwSelfPost, ms(self))
		}
		residual = append(residual, ms(o.latency-gw.dur))
	}
	return
}

// tracedSet returns the trace ids of the traced requests whose spans
// all survived in the rings.
func tracedSet(l *layerInput) map[string]bool {
	set := map[string]bool{}
	for _, o := range l.traced.outcomes {
		if o.trace != "" && o.start.After(l.cutoff) {
			set[o.trace] = true
		}
	}
	return set
}

// spanLayerMetrics derives the span-based metrics of the serve and core
// layers, and the gateway's self time on uploads. A workload that never
// reaches a layer (hot-repeat never runs the pipeline) has no samples
// for it; these metrics are printed for reading but kept out of the JSON
// line, which lists only metrics every workload measures.
func spanLayerMetrics(l *layerInput, gwSelfPost []float64) map[string]metric {
	set := tracedSet(l)
	var in []span
	for _, s := range l.spans {
		if set[s.trace] {
			in = append(in, s)
		}
	}
	self := selfTimes(in)
	by := map[string][]float64{}
	for _, s := range in {
		by[s.name+"/self"] = append(by[s.name+"/self"], ms(self[s.id]))
		by[s.name] = append(by[s.name], ms(s.dur))
	}
	_, admit := tailPercentile(append(by["admission.wait"], by["batch.admit"]...))
	_, pool := tailPercentile(by["pool.wait"])
	return map[string]metric{
		"cluster.upload_forward_ms_p50": {percentile(gwSelfPost, 50), "ms"},
		"serve.build_self_ms_p50":       {percentile(by["workload.build/self"], 50), "ms"},
		"serve.admission_wait_ms_tail":  {admit, "ms"},
		"serve.pool_wait_ms_tail":       {pool, "ms"},
		"core.sample_self_ms_p50":       {percentile(by["sample/self"], 50), "ms"},
		"core.identify_self_ms_p50":     {percentile(by["identify/self"], 50), "ms"},
		"core.extrapolate_us_p50":       {1000 * percentile(by["extrapolate"], 50), "us"},
		"core.final_eval_ms_p50":        {percentile(by["evaluate"], 50), "ms"},
		"core.pipeline_self_ms_p50":     {percentile(by["pipeline/self"], 50), "ms"},
		"hetcc.sample_ms_p50":           {percentile(by["sample.cc"], 50), "ms"},
		"hetspmm.sample_ms_p50":         {percentile(append(by["sample.spmm"], by["sample.spmm-multi"]...), 50), "ms"},
		"hetscale.sample_ms_p50":        {percentile(by["sample.scalefree"], 50), "ms"},
	}
}

// layerMetrics computes the per-layer metrics: those every workload
// measures, for the JSON line, and the span metrics only some workloads
// have, for reading.
func layerMetrics(w workload, l *layerInput) (out, printed map[string]metric, err error) {
	t := l.traced
	requests := float64(t.requests)
	answers := float64(t.answers)
	gwSelf, gwSelfPost, handler, respBytes, residual := handlerLayers(l)
	_, gwTail := tailPercentile(gwSelf)

	// Batch jobs: summaries and per-item backends; single requests: the
	// gateway's backend header.
	share := map[string]float64{}
	var jobs, admissions, builds float64
	var payloads [][]byte
	for _, o := range t.outcomes {
		if o.body != nil && o.status == 200 {
			share[o.backend]++
			payloads = append(payloads, o.body)
		}
		for _, ev := range o.events {
			switch {
			case ev.Type == batch.EventSummary && ev.Summary != nil:
				jobs++
				admissions += float64(ev.Summary.Admissions)
				builds += float64(ev.Summary.Builds)
			case ev.Type == batch.EventRefined:
				share[ev.Backend]++
				payloads = append(payloads, ev.Estimate)
			}
		}
	}
	var shareMax, shareTotal float64
	for _, n := range share {
		shareTotal += n
		if n > shareMax {
			shareMax = n
		}
	}

	rp, err := w.replayInputs()
	if err != nil {
		return nil, nil, err
	}
	rm, err := replay(rp)
	if err != nil {
		return nil, nil, err
	}
	encode, err := replayEncode(payloads)
	if err != nil {
		return nil, nil, err
	}
	transferGap := 0.0
	if bt, ok := w.(*batchTraffic); ok {
		transferGap = bt.transferGap
	}
	d := l.delta
	out = map[string]metric{
		"cluster.gateway_self_ms_p50":  {percentile(gwSelf, 50), "ms"},
		"cluster.gateway_self_ms_tail": {gwTail, "ms"},
		"cluster.hedges_per_1k":        {1000 * ratio(d(func(c counters) float64 { return c.hedges }), requests), "count"},
		"cluster.retries_per_1k":       {1000 * ratio(d(func(c counters) float64 { return c.retries }), requests), "count"},
		"cluster.coalesced_ratio":      {ratio(d(func(c counters) float64 { return c.gwCoalesced }), requests), "ratio"},
		"cluster.backend_share_max":    {ratio(shareMax, shareTotal), "ratio"},
		"cluster.subbatches_per_job":   {ratio(d(func(c counters) float64 { return c.subBatches }), jobs), "count"},
		"serve.handler_ms_p50":         {percentile(handler, 50), "ms"},
		"serve.cache_hit_ratio": {ratio(d(func(c counters) float64 { return c.cacheHits }),
			d(func(c counters) float64 { return c.cacheHits + c.cacheMisses })), "ratio"},
		"serve.build_hit_ratio": {ratio(d(func(c counters) float64 { return c.buildHits }),
			d(func(c counters) float64 { return c.buildHits + c.buildMisses })), "ratio"},
		"serve.encode_us_p50":       {encode, "us"},
		"serve.response_bytes_p50":  {percentile(respBytes, 50), "bytes"},
		"resilience.shed_ratio":     {ratio(d(func(c counters) float64 { return c.shed }), answers), "ratio"},
		"resilience.degraded_ratio": {ratio(d(func(c counters) float64 { return c.degraded }), answers), "ratio"},
		"batch.first_result_ms_p50": {percentile(t.firstMS, 50), "ms"},
		"batch.admissions_per_job":  {ratio(admissions, jobs), "count"},
		"batch.builds_per_job":      {ratio(builds, jobs), "count"},
		"core.evals_per_answer":     {ratio(d(func(c counters) float64 { return c.evals }), answers), "count"},
		"store.skip_ratio":          {ratio(d(func(c counters) float64 { return c.storeSkips }), answers), "ratio"},
		"store.warm_ratio":          {ratio(d(func(c counters) float64 { return c.storeWarm }), answers), "ratio"},
		"store.probe_reject_ratio": {ratio(d(func(c counters) float64 { return c.storeRejects }),
			d(func(c counters) float64 { return c.storeProbes })), "ratio"},
		"store.log_kb_per_answer": {ratio(d(func(c counters) float64 { return c.logBytes })/1024, answers), "KiB"},
		"store.transfer_gap_pct":  {transferGap, "%"},
		"obs.trace_overhead_pct":  {100 * ratio(l.untraced.throughput()-t.throughput(), l.untraced.throughput()), "%"},
		"obs.spans_per_request":   {ratio(d(func(c counters) float64 { return c.spans }), requests), "count"},
		"proc.gc_cpu_pct": {100 * ratio(d(func(c counters) float64 { return c.gcCPU }),
			d(func(c counters) float64 { return c.totalCPU })), "%"},
		"proc.heap_live_mb":            {l.after.heapLive / (1 << 20), "MiB"},
		"residual.unattributed_ms_p50": {percentile(residual, 50), "ms"},
	}
	for k, v := range rm {
		out[k] = v
	}
	return out, spanLayerMetrics(l, gwSelfPost), nil
}

// replayEncode times hetserve's response encoding (indented JSON, as
// writeJSON does) on up to 2,000 captured answers, in microseconds.
func replayEncode(payloads [][]byte) (float64, error) {
	if len(payloads) > 2000 {
		payloads = payloads[:2000]
	}
	var times []float64
	var buf bytes.Buffer
	for _, p := range payloads {
		var resp serve.EstimateResponse
		if err := json.Unmarshal(p, &resp); err != nil {
			return 0, err
		}
		buf.Reset()
		t0 := time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return percentile(times, 50), nil
}
