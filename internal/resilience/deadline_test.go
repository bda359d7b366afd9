package resilience

import (
	"context"
	"net/http"
	"strconv"
	"testing"
	"time"
)

func TestBudgetRoundTrip(t *testing.T) {
	h := make(http.Header)
	SetBudget(h, 250*time.Millisecond)
	got, ok, err := Budget(h)
	if err != nil || !ok {
		t.Fatalf("Budget = %v, %v, %v", got, ok, err)
	}
	if got != 250*time.Millisecond {
		t.Fatalf("budget = %v, want 250ms", got)
	}
}

func TestBudgetFloorsSubMillisecond(t *testing.T) {
	h := make(http.Header)
	SetBudget(h, 300*time.Microsecond)
	if got := h.Get(DeadlineHeader); got != "1" {
		t.Fatalf("header = %q, want \"1\" (floored at 1ms)", got)
	}
}

func TestBudgetClearsOnNonPositive(t *testing.T) {
	h := make(http.Header)
	h.Set(DeadlineHeader, "100")
	SetBudget(h, 0)
	if got := h.Get(DeadlineHeader); got != "" {
		t.Fatalf("header = %q, want cleared", got)
	}
}

func TestBudgetAbsent(t *testing.T) {
	_, ok, err := Budget(make(http.Header))
	if ok || err != nil {
		t.Fatalf("absent header: ok=%v err=%v, want false, nil", ok, err)
	}
}

func TestBudgetMalformed(t *testing.T) {
	// The last two parse as int64 but overflow a time.Duration in
	// milliseconds: they once wrapped to 448µs and -1ms.
	for _, v := range []string{"abc", "-5", "0", "1.5", "18446744073710", "9223372036854775807"} {
		h := make(http.Header)
		h.Set(DeadlineHeader, v)
		if _, _, err := Budget(h); err == nil {
			t.Errorf("Budget(%q) accepted, want error", v)
		}
	}
}

// FuzzBudget checks Budget on arbitrary X-Deadline-Ms values: it never
// panics, and every budget it accepts is at least 1ms and exactly the
// header's milliseconds. Its seeds are in testdata/fuzz.
func FuzzBudget(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		h := make(http.Header)
		h.Set(DeadlineHeader, v)
		budget, ok, err := Budget(h)
		if err != nil || !ok {
			return
		}
		ms, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || budget < time.Millisecond || budget%time.Millisecond != 0 || budget.Milliseconds() != ms {
			t.Fatalf("Budget(%q) = %v, want %s milliseconds", v, budget, v)
		}
	})
}

func TestShaveBudget(t *testing.T) {
	for _, tc := range []struct {
		in, want time.Duration
	}{
		{250 * time.Millisecond, 225 * time.Millisecond}, // 10%
		{5 * time.Millisecond, 4 * time.Millisecond},     // floor: 1ms margin
		{10 * time.Second, 9900 * time.Millisecond},      // cap: 100ms margin
	} {
		if got := ShaveBudget(tc.in); got != tc.want {
			t.Errorf("ShaveBudget(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRemaining(t *testing.T) {
	if _, ok := Remaining(context.Background()); ok {
		t.Fatal("Remaining without deadline reported ok")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d, ok := Remaining(ctx)
	if !ok || d <= 0 || d > time.Second {
		t.Fatalf("Remaining = %v, %v", d, ok)
	}
}
