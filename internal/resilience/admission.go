package resilience

import (
	"context"
	"errors"
	"sync"
)

// ErrOverloaded is returned by Admission.Acquire when the request's
// cost does not fit the controller's free capacity: the server is
// saturated and the request is shed (HTTP 429) rather than queued.
var ErrOverloaded = errors.New("resilience: admission at capacity, request shed")

// DefaultAdmissionLimit is the total estimation cost (grid points ×
// repeats) admitted concurrently when Config leaves it unset. The
// worker pool's wait, bounded in these units, is the one queue in
// front of the pipeline: 12,288 is the smallest multiple of 1,024 at
// which the overload driver (internal/serve/overload_test.go) answers
// the cold-datasets mix at 1× load within a point of the cost-weighted
// goodput the 64-deep wait stack it replaced bought.
const DefaultAdmissionLimit = 12288

// Admission is a cost-aware admission controller: a counting semaphore
// measured in estimation-cost units (one unit ≈ one threshold
// evaluation). Acquire admits or sheds and never blocks.
type Admission struct {
	limit int64

	mu       sync.Mutex
	inFlight int64 // cost units currently admitted
	shed     uint64
	admitted uint64
}

// NewAdmission returns a controller admitting at most limit cost units
// at once; limit <= 0 means DefaultAdmissionLimit.
func NewAdmission(limit int64) *Admission {
	if limit <= 0 {
		limit = DefaultAdmissionLimit
	}
	return &Admission{limit: limit}
}

// Acquire admits cost units when they fit the free capacity and
// returns ErrOverloaded otherwise, or ctx.Err() when the caller's
// context is already done. Cost is clamped to [1, limit] so one
// expensive request can always run alone.
func (a *Admission) Acquire(ctx context.Context, cost int64) error {
	cost = a.clamp(cost)
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inFlight+cost > a.limit {
		a.shed++
		return ErrOverloaded
	}
	a.inFlight += cost
	a.admitted++
	return nil
}

// AcquireBatch admits a batch job's per-item costs as one aggregate
// acquisition: the longest prefix of costs that fits the free capacity
// now, shedding the rest, so the job keeps its head items and drops
// its tail instead of being 429'd whole.
//
// It returns how many items were admitted (always a prefix) and the
// total cost admitted; the caller must Release exactly that total when
// the job finishes. err is non-nil only when not even one item could
// be admitted: ErrOverloaded or the context's error.
func (a *Admission) AcquireBatch(ctx context.Context, costs []int64) (admitted int, total int64, err error) {
	if len(costs) == 0 {
		return 0, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range costs {
		c = a.clamp(c)
		if a.inFlight+c > a.limit {
			break
		}
		a.inFlight += c
		total += c
		admitted++
	}
	a.shed += uint64(len(costs) - admitted)
	if admitted == 0 {
		return 0, 0, ErrOverloaded
	}
	a.admitted++
	return admitted, total, nil
}

// Release returns cost units admitted by Acquire or AcquireBatch.
func (a *Admission) Release(cost int64) {
	cost = a.clamp(cost)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inFlight -= cost
	if a.inFlight < 0 {
		a.inFlight = 0
	}
}

func (a *Admission) clamp(cost int64) int64 {
	if cost < 1 {
		return 1
	}
	if cost > a.limit {
		return a.limit
	}
	return cost
}

// InFlight returns the cost units currently admitted.
func (a *Admission) InFlight() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight
}

// Limit returns the configured capacity in cost units.
func (a *Admission) Limit() int64 { return a.limit }

// Shed returns the lifetime count of requests (and batch items)
// rejected with ErrOverloaded.
func (a *Admission) Shed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed
}

// Admitted returns the lifetime count of successful admissions.
func (a *Admission) Admitted() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted
}
