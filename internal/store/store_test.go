package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

func feat(bandwidth float64) Features {
	return Features{Rows: 1000, NNZ: 10000, MeanWork: 10, WorkCV: 1.2,
		WorkSkew: 3, MaxShare: 0.01, Bandwidth: bandwidth}
}

func testConfig(path string) Config {
	clock := int64(0)
	return Config{Path: path, Now: func() int64 { clock++; return clock }}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(testConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	s.Put("spmm", "dataset:a", "plat1", feat(0.2), 42, 1e6)
	s.Put("cc", "dataset:b", "plat1", feat(0.5), 17, 2e6)
	// Mutate: a rejected probe halves a's confidence.
	s.Observe("spmm", "dataset:a", false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Keep appending after the compaction flush.
	s.Put("spmm", "dataset:c", "plat1", feat(0.9), 60, 3e6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(testConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", r.Len())
	}
	a, ok := r.Get("spmm", "dataset:a")
	if !ok {
		t.Fatal("dataset:a missing after reload")
	}
	if a.Threshold != 42 || a.CostNS != 1e6 || a.Platform != "plat1" {
		t.Errorf("reloaded entry drifted: %+v", a)
	}
	if want := initialConfidence * rejectFactor; a.Confidence != want {
		t.Errorf("confidence = %v, want %v (rejection persisted)", a.Confidence, want)
	}
	if _, ok := r.Get("cc", "dataset:b"); !ok {
		t.Error("dataset:b missing after reload")
	}
	if _, ok := r.Get("spmm", "dataset:c"); !ok {
		t.Error("post-flush append lost on reload")
	}
}

func TestOpenToleratesCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	good := `{"v":1,"entry":{"key":"dataset:a","workload":"spmm","platform":"p","features":{"rows":10,"nnz":20,"mean_work":2,"work_cv":1,"work_skew":0,"max_share":0.1,"bandwidth":0.5},"threshold":42,"cost_ns":100,"confidence":0.5,"transfers":0,"updated_unix":1}}`
	raw := "{torn json\n" + good + "\n" + `{"v":99,"entry":null}` + "\n"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("loaded %d entries from corrupt file, want 1", s.Len())
	}
	if _, ok := s.Get("spmm", "dataset:a"); !ok {
		t.Error("good line not recovered")
	}
}

// TestOpenMendsTornTail cuts the log at every byte offset of its last
// record, as a crash mid-append would. Replay must keep every complete
// record, and a record put after the reopen must survive the next
// replay rather than be appended onto the torn line and lost with it.
func TestOpenMendsTornTail(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	s, err := Open(testConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"dataset:a", "dataset:b", "dataset:c"}
	for i, k := range keys {
		s.Put("spmm", k, "p", feat(0.1*float64(i+1)), float64(40+i), 1e6)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1 // start of the last record

	path := filepath.Join(dir, "store.jsonl")
	for cut := last; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := keys[:2]
		if cut >= len(raw)-1 { // at most the newline is missing
			want = keys
		}
		s, err := Open(testConfig(path))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if s.Len() != len(want) {
			t.Errorf("cut %d: replayed %d entries, want %d", cut, s.Len(), len(want))
		}
		// Append one record and push only the append buffer to disk:
		// no compaction, as if the process died right after.
		s.Put("spmm", "dataset:new", "p", feat(0.9), 70, 1e6)
		s.mu.Lock()
		err = s.appendW.Flush()
		s.appendF.Close()
		s.appendF, s.appendW = nil, nil
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}

		r, err := Open(testConfig(path))
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if r.Len() != len(want)+1 {
			t.Errorf("cut %d: replayed %d entries after the append, want %d", cut, r.Len(), len(want)+1)
		}
		for _, k := range want {
			if _, ok := r.Get("spmm", k); !ok {
				t.Errorf("cut %d: %s lost on replay", cut, k)
			}
		}
		if _, ok := r.Get("spmm", "dataset:new"); !ok {
			t.Errorf("cut %d: the record put after the reopen was lost on replay", cut)
		}
		r.Close()
	}
}

func TestLookupNearestAndRadius(t *testing.T) {
	s, _ := Open(testConfig(""))
	s.Put("spmm", "dataset:near", "p", feat(0.50), 40, 1e6)
	s.Put("spmm", "dataset:far", "p", feat(0.80), 70, 1e6)
	s.Put("cc", "dataset:otherwl", "p", feat(0.52), 10, 1e6)

	n, ok := s.Lookup("spmm", "p", "upload:q", feat(0.52))
	if !ok {
		t.Fatal("expected a hit within radius")
	}
	if n.Entry.Key != "dataset:near" {
		t.Errorf("nearest = %q, want dataset:near", n.Entry.Key)
	}
	if n.Drifted {
		t.Error("same platform should not be drifted")
	}
	// Beyond the radius: no hit.
	if _, ok := s.Lookup("spmm", "p", "upload:q", feat(0.0)); ok {
		t.Error("distant query should miss")
	}
	// The query's own key never matches itself.
	if n, ok := s.Lookup("spmm", "p", "dataset:near", feat(0.50)); ok && n.Entry.Key == "dataset:near" {
		t.Error("lookup returned the caller's own entry")
	}
}

func TestLookupTieBreakDeterministic(t *testing.T) {
	// Two entries exactly symmetric around the query: equal distance.
	// The lexicographically smaller key must win, every time.
	for i := 0; i < 20; i++ {
		s, _ := Open(testConfig(""))
		// Insert in varying order to shake out map-iteration luck.
		if i%2 == 0 {
			s.Put("spmm", "dataset:bbb", "p", feat(0.60), 60, 1e6)
			s.Put("spmm", "dataset:aaa", "p", feat(0.40), 40, 1e6)
		} else {
			s.Put("spmm", "dataset:aaa", "p", feat(0.40), 40, 1e6)
			s.Put("spmm", "dataset:bbb", "p", feat(0.60), 60, 1e6)
		}
		n, ok := s.Lookup("spmm", "p", "upload:q", feat(0.50))
		if !ok {
			t.Fatal("expected hit")
		}
		if n.Entry.Key != "dataset:aaa" {
			t.Fatalf("iteration %d: tie broke to %q, want dataset:aaa", i, n.Entry.Key)
		}
	}
}

func TestEvictionOrdering(t *testing.T) {
	cfg := testConfig("")
	cfg.MaxEntries = 2
	s, _ := Open(cfg)
	s.Put("spmm", "dataset:low", "p", feat(0.1), 10, 1e6)
	s.Put("spmm", "dataset:mid", "p", feat(0.2), 20, 1e6)
	// Boost mid and low differently: low gets rejected (score sinks),
	// mid gets accepted transfers (score rises).
	s.Observe("spmm", "dataset:low", false)
	s.Observe("spmm", "dataset:mid", true)
	s.Observe("spmm", "dataset:mid", true)
	// Inserting a third entry must evict the lowest-scoring one.
	s.Put("spmm", "dataset:new", "p", feat(0.3), 30, 1e6)
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get("spmm", "dataset:low"); ok {
		t.Error("lowest-scoring entry survived eviction")
	}
	if _, ok := s.Get("spmm", "dataset:mid"); !ok {
		t.Error("high-scoring entry was evicted")
	}
	if _, ok := s.Get("spmm", "dataset:new"); !ok {
		t.Error("fresh entry was evicted")
	}

	// Equal scores: the older entry (smaller UpdatedUnix) goes first.
	cfg2 := testConfig("")
	cfg2.MaxEntries = 2
	s2, _ := Open(cfg2)
	s2.Put("spmm", "dataset:old", "p", feat(0.1), 10, 1e6)
	s2.Put("spmm", "dataset:young", "p", feat(0.2), 20, 1e6)
	s2.Put("spmm", "dataset:newest", "p", feat(0.3), 30, 1e6)
	if _, ok := s2.Get("spmm", "dataset:old"); ok {
		t.Error("oldest equal-score entry should evict first")
	}
	if _, ok := s2.Get("spmm", "dataset:young"); !ok {
		t.Error("younger equal-score entry should survive")
	}
}

func TestProbeAcceptRejectBoundaries(t *testing.T) {
	cfg := testConfig("")
	cfg.ProbeTolerance = 0.10
	s, _ := Open(cfg)
	// Transferred threshold is the best probe: accept.
	if !s.AcceptProbe(100, 110, 120) {
		t.Error("best-of-probe threshold rejected")
	}
	// Exactly at tolerance (100 vs best 91: 100 > 1.1*91 = 100.1 is
	// false): accept.
	if !s.AcceptProbe(100, 91, 200) {
		t.Error("within-tolerance threshold rejected")
	}
	// Just past tolerance (100 vs best 90: 1.1*90 = 99 < 100): reject.
	if s.AcceptProbe(100, 90, 200) {
		t.Error("past-tolerance threshold accepted")
	}
	// Exact boundary: 110 vs best 100 at tol 0.10 → accept (<=).
	if !s.AcceptProbe(110, 100) {
		t.Error("exact-boundary threshold rejected")
	}
	if s.AcceptProbe(111, 100) {
		t.Error("one-past-boundary threshold accepted")
	}
}

func TestDriftForcesReestimation(t *testing.T) {
	s, _ := Open(testConfig(""))
	s.Put("spmm", "dataset:a", "plat-old", feat(0.5), 42, 1e6)

	// A platform change shows up as Drifted lookups that decay
	// confidence until it crosses the re-estimation floor.
	var drifted bool
	for i := 0; i < 10; i++ {
		n, ok := s.Lookup("spmm", "plat-new", "upload:q", feat(0.5))
		if !ok {
			t.Fatal("expected hit")
		}
		if !n.Drifted {
			t.Fatal("platform mismatch not flagged as drift")
		}
		if s.CanSkip(n) {
			t.Fatal("drifted entry must not skip Identify")
		}
		e, _ := s.Get("spmm", "dataset:a")
		if e.Confidence < s.ReestimateBelow() {
			drifted = true
			break
		}
	}
	if !drifted {
		t.Error("confidence never crossed the re-estimation floor under drift")
	}

	// Re-estimation on the new platform restores skip eligibility.
	s.Put("spmm", "dataset:a", "plat-new", feat(0.5), 45, 1.1e6)
	s.Observe("spmm", "dataset:a", true)
	s.Observe("spmm", "dataset:a", true)
	s.Observe("spmm", "dataset:a", true)
	n, ok := s.Lookup("spmm", "plat-new", "upload:q", feat(0.5))
	if !ok || n.Drifted {
		t.Fatalf("refreshed entry should match cleanly: ok=%v drifted=%v", ok, n.Drifted)
	}
	if !s.CanSkip(n) {
		t.Errorf("refreshed confident entry should skip (conf %v)", n.Entry.Confidence)
	}
}

func TestObserveReestimateSignal(t *testing.T) {
	s, _ := Open(testConfig(""))
	s.Put("spmm", "dataset:a", "p", feat(0.5), 42, 1e6)
	// 0.5 → 0.25 (below 0.35 floor) on first rejection.
	if !s.Observe("spmm", "dataset:a", false) {
		t.Error("rejection below floor should request re-estimation")
	}
	// Accepts climb back above the floor.
	for i := 0; i < 3; i++ {
		s.Observe("spmm", "dataset:a", true)
	}
	if s.Observe("spmm", "dataset:a", true) {
		t.Error("confident entry should not request re-estimation")
	}
	if s.Observe("spmm", "missing", false) {
		t.Error("unknown key should not request re-estimation")
	}
}

func TestConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(testConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("dataset:%d-%d", w, i)
				s.Put("spmm", key, "p", feat(float64(i)/50), float64(i), 1e6)
				s.Lookup("spmm", "p", "upload:q", feat(0.5))
				s.Observe("spmm", key, i%2 == 0)
				if i%10 == 0 {
					s.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(testConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 8*50 {
		t.Errorf("reloaded %d entries, want %d", r.Len(), 8*50)
	}
}

func TestFeaturesRoundTripAndSimilarity(t *testing.T) {
	a, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassPowerLaw, Rows: 2000, NNZ: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fa := FromCSR(a)
	if fa.Rows != 2000 || fa.NNZ != a.NNZ() {
		t.Fatalf("size features wrong: %+v", fa)
	}
	if fa.WorkCV <= 0.5 || fa.WorkSkew <= 0 {
		t.Errorf("power-law features not skewed: %+v", fa)
	}

	// Wire round-trip.
	parsed, err := ParseFeatures(fa.String())
	if err != nil {
		t.Fatal(err)
	}
	if d := fa.Distance(parsed); d > 1e-6 {
		t.Errorf("wire round-trip moved features by %v", d)
	}
	if _, err := ParseFeatures("2,1,1,1,1,1,1,1"); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := ParseFeatures("garbage"); err == nil {
		t.Error("garbage accepted")
	}

	// Structural similarity: another power-law draw sits close; a
	// banded matrix of the same size sits far.
	b, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassPowerLaw, Rows: 2200, NNZ: 22000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	band, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassFEM, Rows: 2000, NNZ: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dSim := fa.Distance(FromCSR(b))
	dDiff := fa.Distance(FromCSR(band))
	if dSim >= dDiff {
		t.Errorf("similar distance %v not below dissimilar %v", dSim, dDiff)
	}
	if dSim > DefaultRadius {
		t.Errorf("similar power-law draws %v apart, beyond default radius %v", dSim, DefaultRadius)
	}
}

func TestFeaturesGraphMatrixAgreement(t *testing.T) {
	g, err := graph.Generate(graph.GenGraphConfig{Kind: graph.KindRMAT, N: 1000, M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fg := FromGraph(g)
	if fg.Rows != g.N || fg.NNZ != g.Arcs() {
		t.Fatalf("graph size features wrong: %+v", fg)
	}
	if fg.WorkCV <= 0.5 {
		t.Errorf("RMAT degree CV %v not skewed", fg.WorkCV)
	}
}
