package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
)

// memoReplicas are the replicas the memo tests estimate: one FEM, one
// web and one road graph, each small enough to search in milliseconds.
var memoReplicas = []string{"qcd5_4", "webbase-1M", "netherlands_osm"}

// freshWorkloads builds workloads outside any server, on the platform
// and inventories a default server uses, once per (workload, dataset,
// devices).
type freshWorkloads map[string]any

func (f freshWorkloads) get(t *testing.T, s *Server, workload, dataset string, devices int) any {
	t.Helper()
	key := fmt.Sprintf("%s|%s|%d", workload, dataset, devices)
	if w, ok := f[key]; ok {
		return w
	}
	d, err := datasets.ByName(dataset)
	if err != nil {
		t.Fatal(err)
	}
	p := s.platform
	if devices >= 3 {
		p = hetsim.DefaultMulti(devices - 1)
	}
	w, err := newWorkload(p, workload, d.Name, d)
	if err != nil {
		t.Fatal(err)
	}
	f[key] = w
	return w
}

// runTime evaluates a served answer on a newly built workload, outside
// any memo.
func (f freshWorkloads) runTime(t *testing.T, s *Server, workload, dataset string, devices int, out map[string]any) time.Duration {
	t.Helper()
	w := f.get(t, s, workload, dataset, devices)
	var (
		got time.Duration
		err error
	)
	if devices == 0 {
		got, err = w.(core.Workload).Evaluate(out["threshold"].(float64))
	} else {
		raw := out["partition"].([]any)
		p := make(core.Partition, len(raw))
		for i, v := range raw {
			p[i] = v.(float64)
		}
		got, err = w.(core.PartitionWorkload).EvaluatePartition(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestServedRunTimeMatchesFreshEvaluate: every served run time — memo hit
// or miss — equals a fresh full-input evaluation of the served
// estimate on a newly built workload, for cc and spmm on three
// replicas, eight seeds and the scalar, two- and three-device paths.
func TestServedRunTimeMatchesFreshEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("144 estimates")
	}
	s := New(Config{Workers: 2, CacheSize: 512, Logger: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fresh := freshWorkloads{}
	for _, workload := range []string{WorkloadCC, WorkloadSpMM} {
		for _, dataset := range memoReplicas {
			for _, devices := range []int{0, 2, 3} {
				for seed := 1; seed <= 8; seed++ {
					q := fmt.Sprintf("%s/estimate?workload=%s&dataset=%s&seed=%d&repeats=1", ts.URL, workload, dataset, seed)
					if devices > 0 {
						q += "&devices=" + strconv.Itoa(devices)
					}
					out := getJSON(t, q, http.StatusOK)
					want := fresh.runTime(t, s, workload, dataset, devices, out)
					if got := time.Duration(out["run_time_simulated_ns"].(float64)); got != want {
						t.Errorf("%s/%s devices=%d seed=%d: served run time %v, fresh evaluation %v",
							workload, dataset, devices, seed, got, want)
					}
				}
			}
		}
	}
	hits, misses := s.metrics.EvalMemoHits.Value(), s.metrics.EvalMemoMisses.Value()
	if hits == 0 {
		t.Error("no estimate repeated an evaluated vector; the memo's hit path went untested")
	}
	if hits+misses != 144 {
		t.Errorf("memo hits %d + misses %d, want one lookup per estimate (144)", hits, misses)
	}
	if got := s.metrics.evalsInFlight.Value(); got != 0 {
		t.Errorf("evaluations in flight = %v after the traffic drained", got)
	}
}

// estimateBody answers one GET /estimate on s in-process and returns
// its body with wall_ms masked.
func estimateBody(t *testing.T, s *Server, query string) string {
	t.Helper()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", query, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, rr.Code, rr.Body)
	}
	return wallMS.ReplaceAllString(rr.Body.String(), "${1}0")
}

// TestEvalMemoHitAnswersLikeAMiss: a second seed whose estimate repeats
// the first one's threshold is a memo hit that runs no evaluation, and
// its body is byte-identical to the body a fresh server (a memo miss)
// gives for that seed.
func TestEvalMemoHitAnswersLikeAMiss(t *testing.T) {
	const base = "/estimate?workload=cc&dataset=qcd5_4&repeats=1&seed="
	s := New(Config{Workers: 1, Parallelism: 1, CacheSize: 64, Logger: testLogger(t)})
	first := map[float64]int{} // threshold → first seed that reached it
	for seed := 1; seed <= 40; seed++ {
		hits := s.metrics.EvalMemoHits.Value()
		evals := s.metrics.EvalsTotal()
		body := estimateBody(t, s, base+strconv.Itoa(seed))
		var out struct{ Threshold float64 }
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		thr := out.Threshold
		prev, repeated := first[thr]
		if !repeated {
			first[thr] = seed
			continue
		}
		if got := s.metrics.EvalMemoHits.Value() - hits; got != 1 {
			t.Fatalf("seed %d repeats seed %d's threshold %v: %d memo hits, want 1", seed, prev, thr, got)
		}
		// Every evaluation this request ran belongs to its search: the
		// fresh server runs the same search plus the final evaluation.
		searchEvals := s.metrics.EvalsTotal() - evals
		fresh := New(Config{Workers: 1, Parallelism: 1, CacheSize: 64, Logger: testLogger(t)})
		want := estimateBody(t, fresh, base+strconv.Itoa(seed))
		if body != want {
			t.Fatalf("seed %d (memo hit) body differs from a fresh server's:\n%s\nwant:\n%s", seed, body, want)
		}
		if got := fresh.metrics.EvalsTotal(); got != searchEvals+1 {
			t.Errorf("fresh server ran %d evaluations, want the hit's %d plus the final one", got, searchEvals)
		}
		if fresh.metrics.EvalMemoMisses.Value() != 1 || fresh.metrics.EvalMemoHits.Value() != 0 {
			t.Errorf("fresh server memo hits/misses %d/%d, want 0/1",
				fresh.metrics.EvalMemoHits.Value(), fresh.metrics.EvalMemoMisses.Value())
		}
		if got := lastEvalMemo(t, s); got != "hit" {
			t.Errorf("evaluate span memo=%q, want hit", got)
		}
		if got := lastEvalMemo(t, fresh); got != "miss" {
			t.Errorf("fresh server's evaluate span memo=%q, want miss", got)
		}
		return
	}
	t.Fatalf("no two of 40 seeds reached the same threshold: %v", first)
}

// lastEvalMemo returns the memo attribute of the last "evaluate" span
// s recorded.
func lastEvalMemo(t *testing.T, s *Server) string {
	t.Helper()
	spans := s.Sink().Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == "evaluate" {
			return spans[i].Attrs["memo"]
		}
	}
	t.Fatal("no evaluate span recorded")
	return ""
}

// memoLen reports the evaluation memo's population.
func (c *buildCache) memoLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evals)
}

// countingWorkload is a scalar workload whose run time is its threshold
// in microseconds; it counts the evaluations it runs.
type countingWorkload struct{ calls atomic.Int64 }

func (*countingWorkload) Name() string { return "counting" }

func (w *countingWorkload) Evaluate(t float64) (time.Duration, error) {
	w.calls.Add(1)
	return time.Duration(t * float64(time.Microsecond)), nil
}

// TestEvalMemoBounded: after evalMemoCap + k distinct vectors the memo
// has never held more than evalMemoCap entries; filling it cleared it,
// and the vectors evaluated since are hits.
func TestEvalMemoBounded(t *testing.T) {
	const k = 10
	s := New(Config{Logger: testLogger(t)})
	w := new(countingWorkload)
	req := &request{workload: "counting", input: "dataset"}
	at := func(i int) float64 { return float64(i) / 64 }
	for i := 0; i < evalMemoCap+k; i++ {
		d, err := s.evaluate(context.Background(), req, w, at(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if d != time.Duration(at(i)*float64(time.Microsecond)) {
			t.Fatalf("vector %d: run time %v", i, d)
		}
		if n := s.builds.memoLen(); n > evalMemoCap {
			t.Fatalf("after %d vectors the memo holds %d entries, bound %d", i+1, n, evalMemoCap)
		}
	}
	if n := s.builds.memoLen(); n != k {
		t.Errorf("memo holds %d entries after clearing when full, want %d", n, k)
	}
	calls := w.calls.Load()
	for i := evalMemoCap; i < evalMemoCap+k; i++ {
		if _, err := s.evaluate(context.Background(), req, w, at(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.calls.Load() - calls; got != 0 {
		t.Errorf("re-evaluating the %d vectors kept since the clear ran %d evaluations, want 0", k, got)
	}
	if hits := s.metrics.EvalMemoHits.Value(); hits != k {
		t.Errorf("memo hits = %d, want %d", hits, k)
	}
	if got, want := s.metrics.EvalsTotal(), uint64(evalMemoCap+k); got != want {
		t.Errorf("evaluations total = %d, want %d (hits run nothing)", got, want)
	}
}

// TestEvalMemoSkipsUploads: uploads bypass the build cache, so their
// evaluations never enter the memo, however often one is estimated.
func TestEvalMemoSkipsUploads(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 64, Logger: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := genMTX(t, 2000, 20000, 3)
	for seed := 1; seed <= 3; seed++ {
		for _, q := range []string{"", "&devices=2", "&devices=3"} {
			postMTX(t, fmt.Sprintf("%s/estimate?workload=cc&repeats=1&seed=%d%s", ts.URL, seed, q), body, http.StatusOK)
		}
	}
	if n := s.builds.memoLen(); n != 0 {
		t.Errorf("memo holds %d entries after upload-only traffic, want 0", n)
	}
	if hits, misses := s.metrics.EvalMemoHits.Value(), s.metrics.EvalMemoMisses.Value(); hits+misses != 0 {
		t.Errorf("memo hits/misses %d/%d after upload-only traffic, want 0/0", hits, misses)
	}
	if s.metrics.EvalsTotal() == 0 {
		t.Error("upload estimates ran no evaluation")
	}
	if got := lastEvalMemo(t, s); got != "bypass" {
		t.Errorf("upload evaluate span memo=%q, want bypass", got)
	}
}

// TestEvalMemoConcurrent: concurrent requests over overlapping keys
// share the memo without a race (run with -race), and every answer
// still equals a fresh evaluation.
func TestEvalMemoConcurrent(t *testing.T) {
	s := New(Config{Workers: 4, Parallelism: 2, CacheSize: 8, Logger: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	type answer struct {
		dataset string
		devices int
		out     map[string]any
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		answers []answer
	)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				dataset := memoReplicas[(g+i)%2]
				devices := []int{0, 3}[i%2]
				q := fmt.Sprintf("%s/estimate?workload=cc&dataset=%s&seed=%d&repeats=1", ts.URL, dataset, 1+(g*i)%5)
				if devices > 0 {
					q += "&devices=" + strconv.Itoa(devices)
				}
				out, err := fetchJSON(q)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{dataset, devices, out})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fresh := freshWorkloads{}
	for _, a := range answers {
		want := fresh.runTime(t, s, WorkloadCC, a.dataset, a.devices, a.out)
		if got := time.Duration(a.out["run_time_simulated_ns"].(float64)); got != want {
			t.Errorf("%s devices=%d seed=%v: served %v, fresh %v", a.dataset, a.devices, a.out["seed"], got, want)
		}
	}
	if got := s.metrics.evalsInFlight.Value(); got != 0 {
		t.Errorf("evaluations in flight = %v after the traffic drained", got)
	}
}

// fetchJSON GETs url and decodes a 200 JSON body; unlike getJSON it
// reports failures as errors, so goroutines can call it.
func fetchJSON(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
