package serve

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/hetsim"
)

// buildCache holds constructed dataset workloads keyed by (device count,
// workload, dataset). Building a Table II replica workload re-parses
// the dataset and reconstructs the graph/matrix plus its profile —
// real milliseconds the result-cache LRU pays again on every miss over
// the same input. The population is bounded by construction (named
// datasets × workload kinds × one platform per device count), so entries
// live for the life of the server; uploads are never cached here —
// their population is unbounded and their bytes are request-scoped.
//
// Sharing one workload across concurrent pipelines is safe: the
// in-tree workloads treat their input and profile as immutable and
// Sample builds a fresh inner workload per call (see the concurrency
// notes on each Evaluate).
//
// Beside the workloads the cache memoizes their full-input
// evaluations. A simulated run time is a pure function of the input,
// the platform and the vector evaluated, and fresh-seed traffic keeps
// landing on the same estimates, so each (workload, vector) pair needs
// running once. The memo dies with the cache, so it never keeps a
// torn-down server's workloads alive.
type buildCache struct {
	flight flight.Group

	mu    sync.Mutex
	m     map[string]any
	evals map[evalKey]time.Duration
}

// evalMemoCap bounds the evaluation memo (a few hundred KiB of keys).
// A full memo is cleared rather than evicted from: an entry costs one
// evaluation to refill, and clearing needs no recency bookkeeping.
const evalMemoCap = 4096

// evalKey identifies one memoized evaluation: a workload this cache
// built (a pointer, so keys compare by identity) and the exact vector
// evaluated (core.Partition.String, whose shortest round-trip encoding
// tells every pair of floats apart).
type evalKey struct {
	w  any
	at string
}

func newBuildCache() *buildCache {
	return &buildCache{m: make(map[string]any), evals: make(map[evalKey]time.Duration)}
}

// buildKey identifies one constructed dataset workload on platform p
// by p's device count. Each build cache belongs to one Server, which
// holds exactly one platform per device count (the pair for scalar and
// two-device requests, one inventory for each N >= 3), so the count
// names the platform; scalar and two-device requests share the pair's
// builds.
func buildKey(p *hetsim.Platform, workload, dataset string) string {
	return strconv.Itoa(p.Devices()) + "|" + workload + "|" + dataset
}

// get returns the cached workload for key, or builds it. Concurrent
// misses on one key coalesce into a single build (singleflight): the
// leader builds, followers share the result and count as hits. Build
// errors are returned to the whole herd and not cached, so a transient
// failure does not poison the key.
func (c *buildCache) get(key string, build func() (any, error)) (v any, hit bool, err error) {
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		c.mu.Unlock()
		return v, true, nil
	}
	c.mu.Unlock()
	v, err, leader := c.flight.Do(key, func() (any, error) {
		v, err := build()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.m[key] = v
		c.mu.Unlock()
		return v, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v, !leader, nil
}

// len reports the current population (tests, metrics).
func (c *buildCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// evaluation returns the memoized evaluation of the built workload w at
// the vector at.
func (c *buildCache) evaluation(w any, at string) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.evals[evalKey{w, at}]
	return d, ok
}

// remember memoizes the evaluation of the built workload w at the
// vector at, clearing the memo first when it is full.
func (c *buildCache) remember(w any, at string, d time.Duration) {
	k := evalKey{w, at}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.evals[k]; !ok && len(c.evals) >= evalMemoCap {
		clear(c.evals)
	}
	c.evals[k] = d
}
