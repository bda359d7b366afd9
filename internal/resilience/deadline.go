package resilience

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries the remaining time budget, in integer
// milliseconds, from a caller to a backend. The value is a duration,
// not a wall-clock timestamp, so it survives clock skew between hosts;
// the cost is that network transit time is not accounted, which for a
// loopback or rack-local cluster is noise against estimation runtimes.
const DeadlineHeader = "X-Deadline-Ms"

// MinBudget is the smallest budget worth forwarding: below this a
// backend cannot finish even one threshold evaluation, so callers
// should fail fast with DeadlineExceeded instead of dispatching work
// that is guaranteed to be discarded.
const MinBudget = 5 * time.Millisecond

// SetBudget stamps h with the remaining budget, rounded down to whole
// milliseconds (floored at 1ms so a tiny positive budget is not
// silently dropped). Non-positive budgets clear the header.
func SetBudget(h http.Header, remaining time.Duration) {
	if remaining <= 0 {
		h.Del(DeadlineHeader)
		return
	}
	ms := remaining.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	h.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

// Budget reads the propagated budget from h. ok is false when the
// header is absent; a present but malformed, non-positive or
// duration-overflowing value is an error so a garbled header fails
// loudly instead of silently removing or shrinking the deadline.
func Budget(h http.Header) (budget time.Duration, ok bool, err error) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("resilience: bad %s %q: %v", DeadlineHeader, v, err)
	}
	if ms <= 0 {
		return 0, false, fmt.Errorf("resilience: %s %q must be positive", DeadlineHeader, v)
	}
	if ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, false, fmt.Errorf("resilience: bad %s %q: overflows a duration", DeadlineHeader, v)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// ShaveBudget returns budget minus a safety margin — 10%, clamped to
// [1ms, 100ms]. A server working right up to its propagated deadline
// finishes into a connection its caller has already abandoned; shaving
// makes it fail fast a beat earlier, so the caller receives an actual
// 504 (and can retry or degrade) instead of a cancelled read.
func ShaveBudget(budget time.Duration) time.Duration {
	margin := budget / 10
	if margin < time.Millisecond {
		margin = time.Millisecond
	}
	if margin > 100*time.Millisecond {
		margin = 100 * time.Millisecond
	}
	return budget - margin
}

// Remaining returns the time left until ctx's deadline; ok is false
// when ctx has none.
func Remaining(ctx context.Context) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(dl), true
}
