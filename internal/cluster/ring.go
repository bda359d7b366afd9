// Package cluster implements hetgate, the sharded estimation gateway:
// an HTTP front that distributes /estimate traffic across N hetserve
// replicas by input fingerprint.
//
// Routing is a consistent-hash ring with virtual nodes, so a given
// input lands on the same replica across requests (preserving that
// replica's LRU locality) and adding or removing a backend remaps only
// ~1/N of the key space. Each backend is guarded by a three-state
// circuit breaker fed by both live traffic and a periodic /healthz
// prober; failed requests are retried on the next ring replica with
// exponential backoff and jitter, while slow ones are waited for: an
// estimate is deterministic, so a second replica could only repeat it.
// Identical concurrent requests coalesce gateway-side into a single
// upstream call.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count per backend. 64 points per
// backend keeps the largest-to-smallest arc ratio low enough that key
// ranges stay nearly balanced — the same target the paper sets for
// CPU/GPU work splits, applied to replicas.
const DefaultVNodes = 64

// Ring is a consistent-hash ring with virtual nodes. Keys map to the
// backend owning the first point at or after the key's hash; walking
// the ring past that point enumerates distinct fallback replicas in a
// stable order, which the gateway uses for retries and hedging.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	points  []ringPoint // sorted by (hash, backend)
	members map[string]struct{}
}

type ringPoint struct {
	hash    uint64
	backend string
}

// NewRing returns an empty ring with the given virtual-node count per
// backend; vnodes <= 0 means DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// hashKey places vnode labels and routing keys on the ring: FNV-1a
// followed by murmur3's fmix64 finalizer. FNV-1a alone never carries
// its last input byte into the top bits, so the labels b#1…b#9 of one
// backend, which differ only there, would share one narrow arc. The
// finalizer spreads every input bit over the whole word.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is murmur3's 64-bit finalizer: a bijection in which each input
// bit flips each output bit with probability close to one half.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Add inserts a backend's virtual nodes; adding an existing backend is
// a no-op.
func (r *Ring) Add(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[backend]; ok {
		return
	}
	r.members[backend] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", backend, i)), backend})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
}

// Members returns the backends currently on the ring, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for b := range r.members {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Len returns the backend count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Replicas returns up to n distinct backends for key, starting at the
// owner and continuing around the ring. The order is stable for a
// given membership, so retries walk the same fallback chain every
// time.
func (r *Ring) Replicas(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.backend]; dup {
			continue
		}
		seen[p.backend] = struct{}{}
		out = append(out, p.backend)
	}
	return out
}

// Pick returns key's owner, or false on an empty ring.
func (r *Ring) Pick(key string) (string, bool) {
	rs := r.Replicas(key, 1)
	if len(rs) == 0 {
		return "", false
	}
	return rs[0], true
}
