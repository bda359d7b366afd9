package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestChaosWarmStoreServesWhileShedding is the threshold-store chaos
// scenario: every backend's admission capacity is almost exhausted, so
// fresh Identify work sheds — but a warm store keeps answering
// structurally similar traffic, because a probe-verified transfer
// consumes only its probe's admission cost (3 units), never a full
// search's.
func TestChaosWarmStoreServesWhileShedding(t *testing.T) {
	st, err := store.Open(store.Config{
		// Gate below the initial confidence: a first transfer may
		// already skip Identify behind its verification probe.
		SkipConfidence: 0.45,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One process-wide store shared by both replicas: whichever backend
	// serves the seeding request warms the transfer path for all.
	e, g, ts := startChaosCluster(t, 2, serve.Config{
		Workers:        4,
		CacheSize:      64,
		Store:          st,
		AdmissionLimit: 200,
		AdmissionQueue: -1, // shed immediately, never queue
	}, nil)

	const q = "/estimate?workload=spmm&searcher=exhaustive&repeats=1"
	a := genMTX(t, 3000, 30000, 7)
	b := genMTX(t, 3000, 30000, 8) // structurally similar, distinct fingerprint
	c := genMTX(t, 400, 2000, 9)   // structurally distant: must search cold

	// Seed the store while admission is still free.
	resp, err := http.Post(ts.URL+q, "text/plain", bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding request = %d, want 200", resp.StatusCode)
	}

	// Exhaust admission on every backend down to 4 units: a probe (3)
	// fits, a cold exhaustive sweep (102) sheds.
	for i := 0; i < 2; i++ {
		adm := e.Server(i).Admission()
		if err := adm.Acquire(context.Background(), adm.Limit()-4); err != nil {
			t.Fatal(err)
		}
		defer adm.Release(adm.Limit() - 4)
	}

	// Structurally similar input: the shared store answers through the
	// probe path on whichever replica the gateway picks.
	resp, err = http.Post(ts.URL+q, "text/plain", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request under overload = %d, want 200\n%s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(serve.StoreHeader); got != "skip" {
		t.Errorf("%s = %q, want \"skip\"", serve.StoreHeader, got)
	}
	if resp.Header.Get(serve.DegradedHeader) != "" {
		t.Error("transferred answer marked degraded; it is a full-quality estimate")
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body["store_transferred"] != true {
		t.Errorf("store_transferred = %v, want true", body["store_transferred"])
	}
	if storeTransfers(g, "skip") == 0 {
		t.Error("gateway counted no store transfers")
	}

	// Structurally distant input: no neighbor to transfer from, the
	// cold search cannot fit admission anywhere, and the gateway runs
	// out of replicas to try.
	resp, err = http.Post(ts.URL+q, "text/plain", bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("cold request under overload = %d, want 502 (all replicas shed)", resp.StatusCode)
	}
	shed, _, _ := g.Metrics().ResilienceCounts()
	if shed == 0 {
		t.Error("gateway observed no sheds")
	}
}

// TestGatewayForwardsFeatureHint — a features header on the client
// request rides through the gateway to the backend, steering the store
// lookup; the backend's computed features ride back to the client.
func TestGatewayForwardsFeatureHint(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, g, ts := startChaosCluster(t, 2, serve.Config{
		Workers:   4,
		CacheSize: 64,
		Store:     st,
	}, nil)

	const q = "/estimate?workload=spmm&searcher=exhaustive&repeats=1"
	a := genMTX(t, 3000, 30000, 10)
	b := genMTX(t, 3000, 30000, 11)

	resp, err := http.Post(ts.URL+q, "text/plain", bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	feats := resp.Header.Get(serve.FeaturesHeader)
	resp.Body.Close()
	if feats == "" {
		t.Fatal("gateway response missing features header")
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+q, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.FeaturesHeader, feats)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hinted request = %d\n%s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(serve.StoreHeader); got != "warm" {
		t.Errorf("%s = %q, want \"warm\" (hint must land the lookup on a's entry)", serve.StoreHeader, got)
	}
	if storeTransfers(g, "warm") == 0 {
		t.Error("gateway counted no warm transfers")
	}
}

// storeTransfers sums the gateway's store-transfer counter for mode
// over its backends.
func storeTransfers(g *Gateway, mode string) (n uint64) {
	for _, b := range g.Backends() {
		n += g.Metrics().StoreTransfers.With(b, mode).Value()
	}
	return n
}
