package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestRingPickDeterministicAndBalanced(t *testing.T) {
	r := NewRing(0)
	backends := []string{"http://a:1", "http://b:1", "http://c:1"}
	for _, b := range backends {
		r.Add(b)
	}

	counts := make(map[string]int)
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("upload:%032x", i)
		b1, ok := r.Pick(key)
		if !ok {
			t.Fatalf("Pick(%q) found no backend", key)
		}
		b2, _ := r.Pick(key)
		if b1 != b2 {
			t.Fatalf("Pick(%q) unstable: %s then %s", key, b1, b2)
		}
		counts[b1]++
	}
	for _, b := range backends {
		// Perfect balance is 1000; with 64 vnodes the arcs are uneven
		// but every backend must carry a substantial share.
		if counts[b] < 300 {
			t.Errorf("backend %s owns only %d/3000 keys", b, counts[b])
		}
	}
}

// TestRingRemoveRemapsOnlyOwnedKeys: a ring without backend c assigns
// every key c did not own to the same backend as the ring with c.
func TestRingRemoveRemapsOnlyOwnedKeys(t *testing.T) {
	with, without := NewRing(0), NewRing(0)
	for _, b := range []string{"a", "b", "c"} {
		with.Add(b)
		if b != "c" {
			without.Add(b)
		}
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		owner, _ := with.Pick(k)
		now, ok := without.Pick(k)
		if !ok {
			t.Fatalf("Pick(%q) found no backend without c", k)
		}
		if owner != "c" && now != owner {
			t.Errorf("key %q moved %s → %s though its owner stayed", k, owner, now)
		}
		if now == "c" {
			t.Errorf("key %q maps to absent backend c", k)
		}
	}
}

func TestRingReplicasDistinctAndStable(t *testing.T) {
	r := NewRing(8)
	for _, b := range []string{"a", "b", "c", "d"} {
		r.Add(b)
	}
	rs := r.Replicas("some-key", 10)
	if len(rs) != 4 {
		t.Fatalf("Replicas = %v, want 4 distinct backends", rs)
	}
	seen := make(map[string]bool)
	for _, b := range rs {
		if seen[b] {
			t.Fatalf("Replicas = %v contains a duplicate", rs)
		}
		seen[b] = true
	}
	if owner, _ := r.Pick("some-key"); owner != rs[0] {
		t.Errorf("Replicas[0] = %s, Pick = %s; want equal", rs[0], owner)
	}
	if got := r.Replicas("some-key", 2); len(got) != 2 || got[0] != rs[0] || got[1] != rs[1] {
		t.Errorf("Replicas(2) = %v, want prefix of %v", got, rs)
	}
}

func TestRingEmptyAndNoops(t *testing.T) {
	r := NewRing(4)
	if _, ok := r.Pick("k"); ok {
		t.Error("Pick on empty ring reported a backend")
	}
	r.Add("a")
	r.Add("a") // duplicate no-op
	if n := r.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	if rs := r.Replicas("k", 3); len(rs) != 1 || rs[0] != "a" {
		t.Errorf("Replicas = %v, want [a]", rs)
	}
}

// ringShares returns each backend's share of the hash space: a point
// owns the arc from its predecessor (exclusive) up to itself.
func ringShares(r *Ring) map[string]float64 {
	shares := make(map[string]float64)
	n := len(r.points)
	for i, p := range r.points {
		arc := p.hash - r.points[(i+n-1)%n].hash // wraps for the first point
		shares[p.backend] += float64(arc) / (1 << 64)
	}
	return shares
}

// TestRingBalancedOnLoopbackPorts holds the ring to a near-even split
// on the backends it actually serves: three loopback URLs that differ
// only in an ephemeral port, as the embedded cluster and the tests
// start them. Over seeded triples it bounds the mean largest share and
// the mean Σ share⁶, the chance that six distinct keys all land on one
// backend (3·(1/3)⁶ ≈ 0.41% for a perfect split). Plain FNV-1a, without
// the finalizer, reads 0.532 and 4.32% here.
func TestRingBalancedOnLoopbackPorts(t *testing.T) {
	const triples = 2000
	rng := xrand.New(17)
	var sumMax, sumSix float64
	for range triples {
		r := NewRing(DefaultVNodes)
		for r.Len() < 3 {
			r.Add(fmt.Sprintf("http://127.0.0.1:%d", 32768+rng.Intn(61000-32768)))
		}
		largest, six := 0.0, 0.0
		for _, s := range ringShares(r) {
			largest = max(largest, s)
			six += math.Pow(s, 6)
		}
		sumMax += largest
		sumSix += six
	}
	meanMax, meanSix := sumMax/triples, sumSix/triples
	t.Logf("mean largest share %.3f, mean Σ share⁶ %.2f%%", meanMax, 100*meanSix)
	if meanMax > 0.40 {
		t.Errorf("mean largest share = %.3f, want <= 0.40", meanMax)
	}
	if meanSix > 0.01 {
		t.Errorf("mean Σ share⁶ = %.2f%%, want <= 1%%", 100*meanSix)
	}
}
