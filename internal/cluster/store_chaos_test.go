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

// TestChaosStoreTransferShedsUnderOverload is the threshold-store
// chaos scenario: one store shared by two replicas answers a
// structurally similar input through a probe-verified transfer on
// whichever replica the gateway picks. Under overload the store is no
// way around admission: a transfer is charged its request's cold cost
// like any miss, so with every backend's admission nearly exhausted a
// similar input sheds on every replica just as a cold one does.
func TestChaosStoreTransferShedsUnderOverload(t *testing.T) {
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
	c := genMTX(t, 3000, 30000, 9) // similar again, arriving under overload

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

	// Structurally similar input: the shared store answers through the
	// probe path on whichever replica the gateway picks.
	resp, err = http.Post(ts.URL+q, "text/plain", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("similar request = %d, want 200\n%s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(serve.StoreHeader); got != "skip" {
		t.Errorf("%s = %q, want \"skip\"", serve.StoreHeader, got)
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

	// Exhaust admission on every backend down to 4 units, less than
	// the exhaustive sweep's cold cost (101).
	for i := 0; i < 2; i++ {
		adm := e.Server(i).Admission()
		if err := adm.Acquire(context.Background(), adm.Limit()-4); err != nil {
			t.Fatal(err)
		}
	}

	// Another similar input: it would transfer, but its admission
	// cannot fit anywhere, and the gateway runs out of replicas to try.
	resp, err = http.Post(ts.URL+q, "text/plain", bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("similar request under overload = %d, want 502 (all replicas shed)", resp.StatusCode)
	}
	shed, _, _ := g.Metrics().ResilienceCounts()
	if shed == 0 {
		t.Error("gateway observed no sheds")
	}

	// Once the load is gone, the same input transfers.
	for i := 0; i < 2; i++ {
		adm := e.Server(i).Admission()
		adm.Release(adm.Limit() - 4)
	}
	resp, err = http.Post(ts.URL+q, "text/plain", bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(serve.StoreHeader) != "skip" {
		t.Errorf("similar request after overload = %d, %s %q, want 200 and \"skip\"",
			resp.StatusCode, serve.StoreHeader, resp.Header.Get(serve.StoreHeader))
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
