package resilience

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("backend=1;latency=200ms;errors=0.3", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(f.rules))
	}
	r := f.rules[0]
	if r.Backend != 1 || r.Latency != 200*time.Millisecond || r.ErrorRate != 0.3 {
		t.Fatalf("rule = %+v", r)
	}

	f, err = ParseFaults("backend=*;errors=1 | backend=2;stalls=0.5;stall=2s;drip=512;drip-delay=5ms;path=/estimate", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(f.rules))
	}
	if f.rules[0].Backend != -1 || f.rules[0].ErrorRate != 1 {
		t.Fatalf("rule 0 = %+v", f.rules[0])
	}
	r = f.rules[1]
	if r.Backend != 2 || r.StallRate != 0.5 || r.Stall != 2*time.Second ||
		r.DripBytes != 512 || r.DripDelay != 5*time.Millisecond || r.Path != "/estimate" {
		t.Fatalf("rule 1 = %+v", r)
	}
}

func TestParseFaultsErrors(t *testing.T) {
	for _, spec := range []string{
		"latency",         // no value
		"latency=banana",  // bad duration
		"errors=1.5",      // rate out of range
		"errors=-0.1",     // negative rate
		"errors=NaN",      // not a number: the rule would never fire
		"stalls=nan",      // likewise
		"errors=+Inf",     // infinite rate
		"backend=x",       // bad index
		"backend=-7",      // negative index would fault every backend
		"latency=-1s",     // negative latency
		"stall=-5ms",      // negative stall
		"drip-delay=-1ms", // negative drip delay
		"drip=-4",         // negative chunk
		"frobnicate=1",    // unknown key
	} {
		if _, err := ParseFaults(spec, 1); err == nil {
			t.Errorf("ParseFaults(%q) accepted, want error", spec)
		}
	}
}

func TestParseFaultsEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", "|"} {
		f, err := ParseFaults(spec, 1)
		if err != nil || f != nil {
			t.Errorf("ParseFaults(%q) = %v, %v; want nil, nil", spec, f, err)
		}
	}
}

// TestFaultsDeterministic replays the same request sequence through two
// injectors with the same seed and requires identical outcomes.
func TestFaultsDeterministic(t *testing.T) {
	outcomes := func(seed int64) []bool {
		f := NewFaults(seed, Rule{Backend: -1, ErrorRate: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = f.decide(0, "/estimate").fail
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across same-seed runs", i)
		}
	}
	c := outcomes(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-decision sequences")
	}
}

func TestFaultsRuleMatching(t *testing.T) {
	f := NewFaults(1, Rule{Backend: 1, ErrorRate: 1}, Rule{Backend: -1, Path: "/healthz", ErrorRate: 1})
	if f.decide(0, "/estimate").fail {
		t.Fatal("backend 0 /estimate matched no rule but failed")
	}
	if !f.decide(1, "/estimate").fail {
		t.Fatal("backend 1 rule did not fire")
	}
	if !f.decide(2, "/healthz").fail {
		t.Fatal("path rule did not fire")
	}
}

func TestFaultTransportInjectsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	f := NewFaults(1, Rule{Backend: 0, ErrorRate: 1})
	client := &http.Client{Transport: f.Transport(nil, func(*http.Request) int { return 0 })}
	_, err := client.Get(srv.URL)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := f.Counts()["error"]; got != 1 {
		t.Fatalf("error count = %d, want 1", got)
	}

	// A transport mapped to a different backend index passes through.
	clean := &http.Client{Transport: f.Transport(nil, func(*http.Request) int { return 3 })}
	resp, err := clean.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ok" {
		t.Fatalf("body = %q", b)
	}
}

func TestFaultTransportLatencyAndDrip(t *testing.T) {
	payload := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer srv.Close()

	f := NewFaults(1, Rule{Backend: -1, Latency: 30 * time.Millisecond, DripBytes: 1024, DripDelay: 5 * time.Millisecond})
	client := &http.Client{Transport: f.Transport(nil, nil)}
	start := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != payload {
		t.Fatalf("dripped body corrupted: %d bytes", len(b))
	}
	// 30ms latency + ≥3 inter-chunk gaps of 5ms.
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("elapsed %v, want ≥ 45ms (latency + drip)", elapsed)
	}
}

func TestErrInjectedUnwraps(t *testing.T) {
	f := NewFaults(1, Rule{Backend: -1, ErrorRate: 1})
	client := &http.Client{Transport: f.Transport(nil, nil)}
	_, err := client.Get("http://127.0.0.1:0/never-dialed")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected in chain", err)
	}
}

// FuzzParseFaults holds ParseFaults to its contract on any flag value:
// it never panics, and every rule it accepts has rates in [0, 1], a
// backend index of at least -1 (every backend), and non-negative
// durations and drip size. Its seeds are in testdata/fuzz.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFaults(spec, 1)
		if err != nil || fs == nil {
			return
		}
		for i, r := range fs.rules {
			if !(r.ErrorRate >= 0 && r.ErrorRate <= 1) || !(r.StallRate >= 0 && r.StallRate <= 1) ||
				r.Backend < -1 || r.Latency < 0 || r.Stall < 0 || r.DripDelay < 0 || r.DripBytes < 0 {
				t.Fatalf("ParseFaults(%q) accepted rule %d = %+v", spec, i, r)
			}
		}
	})
}
