package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/mmio"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/store"
)

// replaySet is what the replays run on: the workload's own matrices as
// MatrixMarket text, /estimate-batch bodies carrying its inputs, and
// the matrices whose features fill the replayed threshold store.
type replaySet struct {
	bodies    [][]byte
	jobs      []jobBody
	storeFill [][]byte // nil means bodies
}

type jobBody struct {
	body        []byte
	contentType string
}

// replayReps is how often each replayed call repeats per input.
const replayReps = 3

// timeIt runs fn and returns its wall time.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// replay calls each module's public functions directly on the replay
// inputs, once the cluster is gone, and reports their p50 costs.
func replay(rp *replaySet) (map[string]metric, error) {
	var parse, fromCOO, fromCSR, profile, simplex []float64
	var parsedBytes, parseSecs float64
	var mats []*sparse.CSR
	for _, body := range rp.bodies {
		var coo *mmio.COO
		var m *sparse.CSR
		for r := 0; r < replayReps; r++ {
			d, err := timeIt(func() (err error) {
				coo, err = mmio.ReadLimited(bytes.NewReader(body), serve.DefaultMaxUpload)
				return err
			})
			if err != nil {
				return nil, err
			}
			parse = append(parse, ms(d))
			parsedBytes += float64(len(body))
			parseSecs += d.Seconds()
			if d, err = timeIt(func() (err error) { m, err = sparse.FromCOO(coo); return err }); err != nil {
				return nil, err
			}
			fromCOO = append(fromCOO, ms(d))
			if d, err = timeIt(func() error { _, err := graph.FromCSR(m); return err }); err != nil {
				return nil, err
			}
			fromCSR = append(fromCSR, ms(d))
			if d, err = timeIt(func() error {
				_, err := hetspmm.NewWorkload("replay", m, hetspmm.NewAlgorithm(hetsim.Default()))
				return err
			}); err != nil {
				return nil, err
			}
			profile = append(profile, ms(d))
		}
		mats = append(mats, m)
		mw, err := hetspmm.NewMultiWorkload("replay", m, hetspmm.NewMultiAlgorithm(hetsim.DefaultMulti(2)))
		if err != nil {
			return nil, err
		}
		d, err := timeIt(func() error {
			_, err := core.EstimatePartition(context.Background(), mw, core.Config{
				Searcher: searcherFor("spmm"), Seed: 1, Repeats: defaultRepeats, Parallelism: 1})
			return err
		})
		if err != nil {
			return nil, err
		}
		simplex = append(simplex, ms(d))
	}
	out := map[string]metric{
		"mmio.parse_ms_p50":      {percentile(parse, 50), "ms"},
		"mmio.parse_mb_per_s":    {ratio(parsedBytes/1e6, parseSecs), "MB/s"},
		"sparse.from_coo_ms_p50": {percentile(fromCOO, 50), "ms"},
		"graph.from_csr_ms_p50":  {percentile(fromCSR, 50), "ms"},
		"hetspmm.profile_ms_p50": {percentile(profile, 50), "ms"},
		"core.simplex_ms_p50":    {percentile(simplex, 50), "ms"},
	}
	for _, wl := range []string{"cc", "spmm", "scalefree"} {
		us, allocs, err := replayEvaluate(wl, mats)
		if err != nil {
			return nil, err
		}
		mod := map[string]string{"cc": "hetcc", "spmm": "hetspmm", "scalefree": "hetscale"}[wl]
		out[mod+".eval_us_p50"] = metric{us, "us"}
		out[mod+".allocs_per_eval"] = metric{allocs, "count"}
	}
	var err error
	if out["batch.parse_ms_p50"], err = replayBatchParse(rp.jobs); err != nil {
		return nil, err
	}
	fill := rp.storeFill
	if fill == nil {
		fill = rp.bodies
	}
	lookup, put, err := replayStore(fill)
	if err != nil {
		return nil, err
	}
	out["store.lookup_us_p50"], out["store.put_us_p50"] = lookup, put
	return out, nil
}

// replayEvaluate times Workload.Evaluate of one module on every matrix
// at the quartiles of its threshold range, and counts its allocations.
func replayEvaluate(workload string, mats []*sparse.CSR) (us, allocsPerEval float64, err error) {
	var ws []core.Workload
	for i, m := range mats {
		w, err := buildScalar(workload, "replay"+strconv.Itoa(i), m)
		if err != nil {
			return 0, 0, err
		}
		ws = append(ws, w)
	}
	var times []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n := 0
	for _, w := range ws {
		lo, hi := 0.0, 100.0
		if rg, ok := w.(core.Ranger); ok {
			lo, hi = rg.ThresholdRange()
		}
		for _, q := range []float64{0.25, 0.5, 0.75} {
			t := lo + q*(hi-lo)
			for r := 0; r < replayReps; r++ {
				t0 := time.Now()
				if _, err := w.Evaluate(t); err != nil {
					return 0, 0, err
				}
				times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
				n++
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	return percentile(times, 50), ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n)), nil
}

// replayBatchParse times batch.ParseRequest on the job bodies.
func replayBatchParse(jobs []jobBody) (metric, error) {
	var times []float64
	for _, j := range jobs {
		for r := 0; r < replayReps; r++ {
			req, err := http.NewRequest(http.MethodPost, "/estimate-batch", bytes.NewReader(j.body))
			if err != nil {
				return metric{}, err
			}
			req.Header.Set("Content-Type", j.contentType)
			d, err := timeIt(func() error { _, err := batch.ParseRequest(req, 0, serve.DefaultMaxUpload); return err })
			if err != nil {
				return metric{}, fmt.Errorf("replaying batch parse: %w", err)
			}
			times = append(times, ms(d))
		}
	}
	return metric{percentile(times, 50), "ms"}, nil
}

// replayStore fills an in-memory threshold store with the features of
// the given matrices under both upload workloads, timing every Put, then
// times a nearest-neighbour Lookup for each of them.
func replayStore(bodies [][]byte) (lookup, put metric, err error) {
	st, err := store.Open(store.Config{})
	if err != nil {
		return metric{}, metric{}, err
	}
	defer st.Close()
	sig := hetsim.Default().Signature()
	feats := make([]store.Features, len(bodies))
	for i, b := range bodies {
		m, err := parseBody(b)
		if err != nil {
			return metric{}, metric{}, err
		}
		feats[i] = store.FromCSR(m)
	}
	var puts, lookups []float64
	for _, wl := range []string{"cc", "spmm"} {
		for i, f := range feats {
			t0 := time.Now()
			st.Put(wl, "upload:"+strconv.Itoa(i), sig, f, 50, 1)
			puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	for _, wl := range []string{"cc", "spmm"} {
		for i, f := range feats {
			t0 := time.Now()
			st.Lookup(wl, sig, "upload:"+strconv.Itoa(i), f)
			lookups = append(lookups, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return metric{percentile(lookups, 50), "us"}, metric{percentile(puts, 50), "us"}, nil
}

// replayInputs for the dataset workloads: the matrix views of the first
// four distinct replicas in key order, and one manifest job of their
// first eight scalar keys.
func (d *datasetTraffic) replayInputs() (*replaySet, error) {
	rp := &replaySet{}
	seen := map[string]bool{}
	var items []batch.Item
	for _, k := range d.keys {
		if k.devices == 0 && len(items) < jobItems {
			items = append(items, batch.Item{Name: "i" + strconv.Itoa(len(items)), Workload: k.workload,
				Dataset: k.dataset, Searcher: searcherParam[k.workload], Seed: 1, Repeats: defaultRepeats})
		}
		if seen[k.dataset] || len(seen) == 4 {
			continue
		}
		seen[k.dataset] = true
		ds, err := datasets.ByName(k.dataset)
		if err != nil {
			return nil, err
		}
		m, err := ds.Matrix()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := mmio.Write(&buf, m.ToCOO()); err != nil {
			return nil, err
		}
		rp.bodies = append(rp.bodies, buf.Bytes())
	}
	body, ct, err := batch.EncodeRequest(items)
	if err != nil {
		return nil, err
	}
	rp.jobs = []jobBody{{body, ct}}
	return rp, nil
}

// replayInputs for upload-cold: the first eight pool bodies (two of
// them large) and one multipart job carrying them.
func (u *uploadTraffic) replayInputs() (*replaySet, error) {
	rp := &replaySet{bodies: u.bodies[:8]}
	items := make([]batch.Item, len(rp.bodies))
	for i, b := range rp.bodies {
		wl := [2]string{"spmm", "cc"}[i%2]
		items[i] = batch.Item{Name: "i" + strconv.Itoa(i), Workload: wl, Searcher: searcherParam[wl],
			Seed: 1, Repeats: defaultRepeats, Body: b}
	}
	body, ct, err := batch.EncodeRequest(items)
	if err != nil {
		return nil, err
	}
	rp.jobs = []jobBody{{body, ct}}
	return rp, nil
}

// replayInputs for batch-store: the first job's item bodies, the first
// four job bodies, and a store filled with every variant.
func (b *batchTraffic) replayInputs() (*replaySet, error) {
	rp := &replaySet{storeFill: b.bodies}
	for _, it := range b.items(0) {
		rp.bodies = append(rp.bodies, it.Body)
	}
	for i := 0; i < 4; i++ {
		r := b.request(i)
		rp.jobs = append(rp.jobs, jobBody{r.body, r.contentType})
	}
	return rp, nil
}
