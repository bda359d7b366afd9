package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"cold-datasets", "hot-repeat", "upload-cold", "batch-store"}

// workload is one traffic mix: its request sequence, its per-cluster
// set-up, and the checks on its answers.
type workload interface {
	traffic
	// setup prepares a freshly started cluster; its time is setup_s.
	setup(c *benchCluster) error
	// verify checks the measured answers and returns how many were wrong
	// and their mean estimate gap in percent of the exhaustive optimum.
	verify() (wrong int, gapPct float64, err error)
	// replayInputs returns the inputs the per-layer replays run on.
	replayInputs() (*replaySet, error)
}

// env is what every workload shares: the run seed, the client count,
// the in-process replica workloads and the exhaustive oracle.
type env struct {
	seed    uint64
	clients int
	workdir string
	reps    *replicas
	oracle  *oracle
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "cold-datasets":
		keys := coldKeys(e.seed)
		return &datasetTraffic{env: e, keys: keys, gapBefore: coldGapCycles * len(keys),
			pick: func(i int) (int, uint64) {
				k := i % len(keys)
				return k, taskSeed(i/len(keys), keys[k].id)
			},
			sampled: func(seq int) bool { return mix(e.seed^7<<40+uint64(seq))%8 == 0 },
		}, nil
	case "hot-repeat":
		keys := hotKeys(e.seed)
		z := newZipf(e.seed, len(keys), 1.1)
		d := &datasetTraffic{env: e, keys: keys, gapPerKey: true,
			pick:    func(i int) (int, uint64) { k := z.rank(i); return k, keys[k].seed },
			sampled: func(int) bool { return true },
		}
		// Fixed seeds make every hot path a constant; render them once
		// so the client adds no URL encoding per request.
		d.paths = make([]string, len(keys))
		for k, key := range keys {
			d.paths[k] = "/estimate?" + key.query(key.seed, defaultRepeats)
		}
		return d, nil
	case "upload-cold":
		return &uploadTraffic{env: e, specs: uploadSpecs()}, nil
	case "batch-store":
		return &batchTraffic{env: e, specs: batchSpecs()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// coldGapCycles is how many whole key cycles of cold-datasets the
// estimate gap is taken over: 13 × 39 = 507 scalar answers, the same
// estimation tasks under every run seed.
const coldGapCycles = 13

// answer is the compact record of one verified answer.
type answer struct {
	seq       int
	item      int // key index, upload pool index or batch variant
	workload  string
	seed      uint64
	threshold float64
	partition core.Partition
	evals     int
	runNS     int64
	transfer  bool // batch-store: answered through the threshold store
}

// answerOf validates a 200 /estimate payload against what was asked and
// returns its compact record.
func answerOf(raw []byte, seq, item int, workload string, seed uint64) (answer, error) {
	var resp serve.EstimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return answer{}, fmt.Errorf("decoding answer %d: %w", seq, err)
	}
	if resp.Degraded {
		return answer{}, fmt.Errorf("answer %d is degraded", seq)
	}
	if resp.Seed != seed || resp.Workload != workload {
		return answer{}, fmt.Errorf("answer %d is for %s seed %d, asked %s seed %d", seq, resp.Workload, resp.Seed, workload, seed)
	}
	return answer{seq: seq, item: item, workload: workload, seed: seed,
		threshold: resp.Threshold, partition: resp.Partition, evals: resp.Evals, runNS: resp.RunTimeNS,
		transfer: resp.Transferred || resp.WarmStarted}, nil
}

// answers collects a workload's answers for the checker.
type answers struct {
	mu   sync.Mutex
	list []answer
}

func (a *answers) add(x answer) {
	a.mu.Lock()
	a.list = append(a.list, x)
	a.mu.Unlock()
}

// sorted returns the answers in sequence order.
func (a *answers) sorted() []answer {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]answer(nil), a.list...)
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// sendAll issues reqs through c's gateway with the closed-loop client
// count and fails on the first request that does not answer 200.
func sendAll(c *benchCluster, clients int, reqs []request) error {
	cl := newClient(c.base, nil, clients)
	defer cl.close()
	return forEachN(len(reqs), clients, func(i int) error {
		o := cl.do(reqs[i])
		if o.err != nil {
			return o.err
		}
		if o.status != http.StatusOK {
			return fmt.Errorf("set-up request %s: HTTP %d: %s", reqs[i].pathQuery, o.status, firstLine(o.body))
		}
		return nil
	})
}

// datasetTraffic is GET /estimate over Table II replicas: cold-datasets
// and hot-repeat differ only in which key and seed request i asks for.
type datasetTraffic struct {
	*env
	keys  []estKey
	paths []string // fixed request paths, when seeds are fixed
	// pick maps request i to its key index and estimation seed.
	pick func(i int) (int, uint64)
	// sampled selects the answers compared with an in-process reference.
	sampled func(seq int) bool
	// The estimate gap is the mean over the scalar answers before
	// sequence position gapBefore, or with gapPerKey over the distinct
	// scalar keys answered (each counted once, whatever its popularity).
	gapBefore int
	gapPerKey bool
	got       answers
}

func (d *datasetTraffic) request(i int) request {
	k, seed := d.pick(i)
	if d.paths != nil {
		return request{method: http.MethodGet, pathQuery: d.paths[k]}
	}
	return request{method: http.MethodGet, pathQuery: "/estimate?" + d.keys[k].query(seed, defaultRepeats)}
}

func (d *datasetTraffic) record(i int, o *outcome) (int, int) {
	if o.err != nil || o.status != http.StatusOK {
		return 0, 1
	}
	k, seed := d.pick(i)
	a, err := answerOf(o.body, i, k, d.keys[k].workload, seed)
	if err != nil {
		return 0, 1
	}
	d.got.add(a)
	return 1, 0
}

// setup builds every key's workload on the backend that owns it:
// cold-datasets fills the build caches (one cheap repeats=1 request per
// key, a seed the measured run never uses), hot-repeat asks every key
// exactly as the measured run will, filling the result caches.
func (d *datasetTraffic) setup(c *benchCluster) error {
	reqs := make([]request, len(d.keys))
	for k, key := range d.keys {
		if d.paths != nil {
			reqs[k] = request{method: http.MethodGet, pathQuery: d.paths[k]}
		} else {
			reqs[k] = request{method: http.MethodGet, pathQuery: "/estimate?" + key.query(1<<40+uint64(key.id), 1)}
		}
	}
	return sendAll(c, d.clients, reqs)
}

func (d *datasetTraffic) verify() (int, float64, error) {
	list := d.got.sorted()
	// References: one per distinct (key, seed) among the sampled answers.
	type refID struct {
		k    int
		seed uint64
	}
	type refOut struct {
		scalar *core.Estimate
		part   *core.PartitionEstimate
	}
	refs := map[refID]*refOut{}
	var ids []refID
	for _, a := range list {
		id := refID{a.item, a.seed}
		if _, ok := refs[id]; !ok && d.sampled(a.seq) {
			refs[id] = &refOut{}
			ids = append(ids, id)
		}
	}
	err := forEach(len(ids), func(i int) error {
		key, out := d.keys[ids[i].k], refs[ids[i]]
		if key.devices > 0 {
			w, err := d.reps.getMulti(key.workload, key.dataset, key.devices)
			if err != nil {
				return err
			}
			out.part, err = referencePartition(w, key.workload, ids[i].seed)
			return err
		}
		w, err := d.reps.get(key.workload, key.dataset)
		if err != nil {
			return err
		}
		out.scalar, err = referenceScalar(w, key.workload, ids[i].seed)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	wrong := 0
	var gaps []float64
	gapped := map[int]bool{}
	for _, a := range list {
		key := d.keys[a.item]
		ref := refs[refID{a.item, a.seed}]
		var cerr error
		if key.devices > 0 {
			if ref != nil && d.sampled(a.seq) {
				cerr = checkPartition(&a, ref.part)
			}
		} else {
			c := d.oracle.curve(key.workload, key.dataset)
			cerr = checkRunTime(&a, c)
			if cerr == nil && ref != nil && d.sampled(a.seq) {
				cerr = checkScalar(&a, ref.scalar)
			}
			inGap := a.seq < d.gapBefore || (d.gapPerKey && !gapped[a.item])
			if cerr == nil && inGap {
				gapped[a.item] = true
				g, err := c.gapPct(a.threshold)
				if err != nil {
					return 0, 0, err
				}
				gaps = append(gaps, g)
			}
		}
		if cerr != nil {
			wrong++
			reportWrong(cerr)
		}
	}
	return wrong, mean(gaps), nil
}

// uploadTraffic is POST /estimate of MatrixMarket bodies from a pool
// made at set-up. Each cycle sends every body once (see plan), with a
// fresh seed, spmm and cc alternating.
type uploadTraffic struct {
	*env
	specs  []matrixSpec
	bodies [][]byte
	plan   plan
	got    answers
}

func (u *uploadTraffic) request(i int) request {
	b, wl, seed := u.plan.at(i)
	q := "/estimate?workload=" + wl + "&searcher=" + searcherParam[wl] +
		"&repeats=" + strconv.Itoa(defaultRepeats) + "&seed=" + strconv.FormatUint(seed, 10)
	return request{method: http.MethodPost, pathQuery: q, body: u.bodies[b], contentType: "text/plain"}
}

func (u *uploadTraffic) record(i int, o *outcome) (int, int) {
	if o.err != nil || o.status != http.StatusOK {
		return 0, 1
	}
	b, wl, seed := u.plan.at(i)
	a, err := answerOf(o.body, i, b, wl, seed)
	if err != nil {
		return 0, 1
	}
	u.got.add(a)
	return 1, 0
}

// setup renders the pool and orders it from the seed; uploads share
// nothing, so there is no cache to warm. A cycle's groups of four each
// hold one small body of every structure class and one large body.
func (u *uploadTraffic) setup(*benchCluster) error {
	bodies, err := renderAll(u.specs)
	if err != nil {
		return err
	}
	u.bodies = bodies
	u.plan = newPlan(u.seed, 4, classesBy(len(u.specs), func(b int) int {
		if u.specs[b].rows > 2000 {
			return -1
		}
		return int(u.specs[b].class)
	}))
	return nil
}

// uploadGapCycles is how many whole pool cycles the upload-cold gap is
// taken over: every body under both workloads twice, 192 answers, the
// same tasks under every run seed.
const uploadGapCycles = 4

// verify checks every answer's run time against an exhaustive sweep of
// its matrix, re-estimates a deterministic 1-in-16 subset in process,
// and scores the first pool cycles.
func (u *uploadTraffic) verify() (int, float64, error) {
	list := u.got.sorted()
	wrong, gaps, err := verifyUploads(list, u.bodies,
		func(seq int) bool { return mix(u.seed^8<<40+uint64(seq))%16 == 0 },
		uploadGapCycles*len(u.plan.order))
	return wrong, meanValid(gaps), err
}

// verifyUploads checks answers about uploaded bodies: every one against
// the exhaustive sweep of its matrix, and those withRef selects against
// an in-process reference estimate. It returns the wrong-answer count
// and each answer's estimate gap — NaN for a wrong answer and for one at
// or past sequence position gapBefore. Each body is parsed once and its
// workloads and sweeps are built once per (body, workload).
func verifyUploads(list []answer, bodies [][]byte, withRef func(seq int) bool, gapBefore int) (int, []float64, error) {
	type pair struct {
		body     int
		workload string
	}
	built := map[pair]*curve{}
	asked := map[int][]string{} // the workloads each body was asked under
	var order []int
	for _, a := range list {
		p := pair{a.item, a.workload}
		if _, ok := built[p]; ok {
			continue
		}
		built[p] = nil
		if asked[a.item] == nil {
			order = append(order, a.item)
		}
		asked[a.item] = append(asked[a.item], a.workload)
	}
	var mu sync.Mutex
	err := forEach(len(order), func(i int) error {
		b := order[i]
		m, err := parseBody(bodies[b])
		if err != nil {
			return err
		}
		for _, wl := range asked[b] {
			w, err := buildScalar(wl, "upload", m)
			if err != nil {
				return err
			}
			c, err := exhaustive(w)
			if err != nil {
				return err
			}
			mu.Lock()
			built[pair{b, wl}] = c
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	gaps := make([]float64, len(list))
	isWrong := make([]bool, len(list))
	err = forEach(len(list), func(i int) error {
		a := list[i]
		gaps[i] = math.NaN()
		c := built[pair{a.item, a.workload}]
		cerr := checkRunTime(&a, c)
		if cerr == nil && withRef(a.seq) {
			ref, err := referenceScalar(c.w.(core.Sampled), a.workload, a.seed)
			if err != nil {
				return err
			}
			cerr = checkScalar(&a, ref)
		}
		if cerr != nil {
			isWrong[i] = true
			reportWrong(cerr)
			return nil
		}
		if a.seq >= gapBefore {
			return nil
		}
		g, err := c.gapPct(a.threshold)
		gaps[i] = g
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	wrong := 0
	for _, w := range isWrong {
		if w {
			wrong++
		}
	}
	return wrong, gaps, nil
}

// meanValid is the mean of the non-NaN values.
func meanValid(xs []float64) float64 {
	var ok []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			ok = append(ok, x)
		}
	}
	return mean(ok)
}

// batchTraffic is NDJSON /estimate-batch jobs of 8 upload items over
// batch-store's structural families, every backend sharing one
// persistent threshold store.
type batchTraffic struct {
	*env
	specs  []matrixSpec
	bodies [][]byte
	plan   plan
	st     *store.Store
	dir    string
	got    answers
	// transferGap is the mean estimate gap of the checked items answered
	// through the store (skip or warm start), set by verify.
	transferGap float64
}

// jobItems is the item count of every batch-store job.
const jobItems = 8

func (b *batchTraffic) items(i int) []batch.Item {
	items := make([]batch.Item, jobItems)
	for k := range items {
		v, wl, seed := b.plan.at(i*jobItems + k)
		items[k] = batch.Item{Name: "i" + strconv.Itoa(k), Workload: wl, Searcher: searcherParam[wl],
			Seed: seed, Repeats: defaultRepeats, Body: b.bodies[v]}
	}
	return items
}

func (b *batchTraffic) request(i int) request {
	body, ct, err := batch.EncodeRequest(b.items(i))
	if err != nil {
		// Encoding in-memory items cannot fail; an empty body makes the
		// job fail loudly if it ever does.
		body, ct = nil, "application/json"
	}
	return request{method: http.MethodPost, pathQuery: "/estimate-batch", body: body, contentType: ct, batch: true}
}

// record accepts a job only when every item ends in a refined,
// non-degraded event and the summary counts them all completed.
func (b *batchTraffic) record(i int, o *outcome) (int, int) {
	if o.err != nil || o.status != http.StatusOK {
		return 0, jobItems
	}
	var sum *batch.Summary
	terminal := map[string]batch.Event{}
	for _, e := range o.events {
		switch {
		case e.Type == batch.EventSummary:
			sum = e.Summary
		case e.Terminal():
			if _, dup := terminal[e.Item]; !dup {
				terminal[e.Item] = e
			}
		}
	}
	answers := 0
	for k := 0; k < jobItems; k++ {
		e, ok := terminal["i"+strconv.Itoa(k)]
		if !ok || e.Type != batch.EventRefined || e.Degraded {
			continue
		}
		seq := i*jobItems + k
		v, wl, seed := b.plan.at(seq)
		a, err := answerOf(e.Estimate, seq, v, wl, seed)
		if err != nil {
			continue
		}
		answers++
		b.got.add(a)
	}
	failures := jobItems - answers
	if failures == 0 && (sum == nil || sum.Items != jobItems || sum.Completed != jobItems) {
		failures = 1
	}
	return answers, failures
}

// openStore creates the threshold store every backend shares, logging
// JSONL to a fresh directory under the work directory.
func (b *batchTraffic) openStore() (*store.Store, error) {
	dir, err := os.MkdirTemp(b.workdir, "store-")
	if err != nil {
		return nil, fmt.Errorf("creating store directory: %w", err)
	}
	st, err := store.Open(store.Config{Path: filepath.Join(dir, "store.jsonl")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b.closeStore()
	b.st, b.dir = st, dir
	return st, nil
}

// closeStore closes the store and removes its directory.
func (b *batchTraffic) closeStore() {
	if b.st == nil {
		return
	}
	if err := b.st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "closing store:", err)
	}
	os.RemoveAll(b.dir)
	b.st, b.dir = nil, ""
}

// logBytes is the size of the store's JSONL log so far.
func (b *batchTraffic) logBytes() int64 {
	fi, err := os.Stat(filepath.Join(b.dir, "store.jsonl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// setup renders the variants and orders them from the seed: every job
// holds one variant of each family, four items under spmm and four under
// cc. The warm-up then runs every variant through the fresh store.
func (b *batchTraffic) setup(*benchCluster) error {
	bodies, err := renderAll(b.specs)
	if err != nil {
		return err
	}
	b.bodies = bodies
	b.plan = newPlan(b.seed, 9, classesBy(len(b.specs), func(v int) int { return v / batchVariants }))
	return nil
}

// batchGapCycles is how many whole variant cycles the batch-store gap
// is taken over: 2,048 items, every variant under both workloads eight
// times. Which answers the store gives depends on the order in which the
// two clients' jobs reach it, so unlike the other workloads' gaps this
// one moves between runs (see STABILITY.md).
const batchGapCycles = 16

// verify checks every item's run time against an exhaustive sweep of
// its matrix and scores the first variant cycles. Store transfers
// make the served thresholds depend on arrival order, so there is no
// bit-identical reference to compare with.
func (b *batchTraffic) verify() (int, float64, error) {
	list := b.got.sorted()
	wrong, gaps, err := verifyUploads(list, b.bodies, func(int) bool { return false }, batchGapCycles*len(b.plan.order))
	if err != nil {
		return 0, 0, err
	}
	var transferred []float64
	for i, a := range list {
		if a.transfer && !math.IsNaN(gaps[i]) {
			transferred = append(transferred, gaps[i])
		}
	}
	b.transferGap = meanValid(transferred)
	return wrong, meanValid(gaps), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// reportWrong prints one checker finding to standard error.
func reportWrong(err error) { fmt.Fprintln(os.Stderr, "wrong answer:", err) }

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
