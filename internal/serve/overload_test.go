package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/resilience"
	"repro/internal/xrand"
)

// The overload driver replays seeded Poisson traffic against the real
// resilience.Admission in front of a simulated FIFO pool of
// overloadWorkers workers, on a virtual clock in microseconds: nothing
// sleeps, and every row is a deterministic function of its seeds.
//
// Each arrival draws one key of the cold-datasets mix ({cc, spmm} × 15
// replicas × {scalar, devices=3} plus scalefree × 9, the default
// searchers at the default repeats) and is charged its admission cost,
// partitionSearchCost. Its service time is overloadUnitUS per cost
// unit, so capacity is overloadWorkers / (mean cost × unit) requests
// per µs, and the load factor scales the arrival rate against it. A
// request admitted at its cost waits FIFO for a worker; it times out
// when its deadline passes while it waits, or while it runs (the
// pipeline observes its context between evaluations). Acquire admits
// or sheds and never blocks, so the driver calls it inline.
const (
	overloadWorkers  = 2
	overloadUnitUS   = 50
	overloadArrivals = 40000
)

var (
	overloadSeeds     = []uint64{1, 2, 3}
	overloadLoads     = []float64{0.5, 1, 1.5, 3}
	overloadDeadlines = []time.Duration{DefaultMaxTimeout, time.Second}
)

// overloadCosts returns the admission cost of every cold-datasets key.
func overloadCosts(t *testing.T) []int64 {
	t.Helper()
	var costs []int64
	add := func(workload string, devices int) {
		s, err := searcherFor(workload, "")
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, partitionSearchCost(s, defaultRepeats, devices))
	}
	for range datasets.All() {
		for _, wl := range []string{WorkloadCC, WorkloadSpMM} {
			add(wl, 0)
			add(wl, 3)
		}
	}
	for range datasets.ScaleFreeSet() {
		add(WorkloadScaleFree, 0)
	}
	return costs
}

// overloadTally accumulates one arm's outcomes over its seeds.
type overloadTally struct {
	arrivals, answered, shed, timedOut int
	offered, served                    int64   // cost units
	latencies                          []int64 // µs, answered requests
}

// row formats the tally as one EXPERIMENTS.md table row's numbers:
// answered share, cost-weighted goodput, shed and timeout ratios, and
// the p99 of answered requests in ms.
func (o *overloadTally) row() string {
	n := float64(o.arrivals)
	slices.Sort(o.latencies)
	var p99 int64
	if len(o.latencies) > 0 {
		p99 = o.latencies[(len(o.latencies)*99+99)/100-1]
	}
	return fmt.Sprintf("%.4f | %.4f | %.4f | %.4f | %.1f",
		float64(o.answered)/n, float64(o.served)/float64(o.offered),
		float64(o.shed)/n, float64(o.timedOut)/n, float64(p99)/1e3)
}

const (
	simQueued = iota
	simRunning
	simDone
)

type simJob struct {
	cost             int64
	arrive, deadline int64
	state            int
	timedOut         bool
}

const (
	evArrive = iota
	evFinish
	evExpire
)

type simEvent struct {
	at, seq int64
	kind    int
	job     *simJob
}

// simEvents is a binary min-heap of events ordered by time, then by
// the order they were pushed.
type simEvents []simEvent

func (h simEvents) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *simEvents) push(e simEvent) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *simEvents) pop() simEvent {
	q := *h
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && q.less(l, m) {
			m = l
		}
		if r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return e
}

// overloadSim is one seeded run: the admission controller under test,
// the simulated pool and the event queue.
type overloadSim struct {
	t        *testing.T
	adm      *resilience.Admission
	tally    *overloadTally
	events   simEvents
	seq      int64
	queue    []*simJob // admitted, waiting for a worker, FIFO
	busy     int
	now      int64
	deadline int64
}

func (s *overloadSim) push(at int64, kind int, j *simJob) {
	s.seq++
	s.events.push(simEvent{at: at, seq: s.seq, kind: kind, job: j})
}

// simulateOverload runs overloadArrivals arrivals of seed at load
// against adm and adds the outcomes to tally.
func simulateOverload(t *testing.T, adm *resilience.Admission, costs []int64, load float64, deadline time.Duration, seed uint64, tally *overloadTally) {
	var sum int64
	for _, c := range costs {
		sum += c
	}
	meanService := float64(sum) / float64(len(costs)) * overloadUnitUS
	meanGap := meanService / (overloadWorkers * load)
	rng := xrand.New(seed)
	s := &overloadSim{t: t, adm: adm, tally: tally, deadline: deadline.Microseconds()}
	next := func() (int64, int64) {
		c := costs[rng.Intn(len(costs))]
		gap := int64(math.Round(-math.Log(1-rng.Float64()) * meanGap))
		return c, gap
	}
	cost, gap := next()
	s.push(gap, evArrive, &simJob{cost: cost})
	arrivals := 1
	for len(s.events) > 0 {
		e := s.events.pop()
		s.now = e.at
		j := e.job
		switch e.kind {
		case evArrive:
			if arrivals < overloadArrivals {
				cost, gap := next()
				s.push(s.now+gap, evArrive, &simJob{cost: cost})
				arrivals++
			}
			j.arrive, j.deadline = s.now, s.now+s.deadline
			tally.arrivals++
			tally.offered += j.cost
			s.acquire(j)
		case evFinish:
			j.state = simDone
			s.busy--
			if j.timedOut {
				tally.timedOut++
			} else {
				tally.answered++
				tally.served += j.cost
				tally.latencies = append(tally.latencies, s.now-j.arrive)
			}
			s.start()
			s.adm.Release(j.cost)
		case evExpire:
			if j.state == simQueued {
				j.state = simDone
				tally.timedOut++
				s.adm.Release(j.cost)
			}
		}
	}
	if s.adm.InFlight() != 0 {
		t.Fatalf("run ended with %d units in flight", s.adm.InFlight())
	}
}

// acquire admits j into the pool's queue or sheds it.
func (s *overloadSim) acquire(j *simJob) {
	switch err := s.adm.Acquire(context.Background(), j.cost); {
	case err == nil:
		s.enqueue(j)
	case errors.Is(err, resilience.ErrOverloaded):
		j.state = simDone
		s.tally.shed++
	default:
		s.t.Fatalf("Acquire = %v", err)
	}
}

func (s *overloadSim) enqueue(j *simJob) {
	j.state = simQueued
	s.queue = append(s.queue, j)
	s.push(j.deadline, evExpire, j)
	s.start()
}

// start hands queued requests to idle workers, FIFO. A request runs
// for its service time or until its deadline, whichever comes first.
func (s *overloadSim) start() {
	for s.busy < overloadWorkers && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != simQueued {
			continue
		}
		j.state = simRunning
		s.busy++
		end := s.now + j.cost*overloadUnitUS
		if end > j.deadline {
			end, j.timedOut = j.deadline, true
		}
		s.push(end, evFinish, j)
	}
}

// overloadRows runs every deadline × load arm over overloadSeeds, with
// a fresh controller of the given limit per seed, and returns the
// table rows: deadline, load, answered share, cost-weighted goodput,
// shed and timeout ratios, and the p99 of answered requests in ms.
func overloadRows(t *testing.T, limit int64) []string {
	costs := overloadCosts(t)
	var rows []string
	for _, d := range overloadDeadlines {
		for _, load := range overloadLoads {
			var tally overloadTally
			for _, seed := range overloadSeeds {
				simulateOverload(t, resilience.NewAdmission(limit), costs, load, d, seed, &tally)
			}
			rows = append(rows, fmt.Sprintf("%v | %g× | %s", d, load, tally.row()))
		}
	}
	return rows
}

// TestOverloadDriver pins the admit-or-shed design's rows at the
// default admission limit. The wait stack it replaced, and the limit
// it was sized against, are compared in EXPERIMENTS.md ("Admit or
// shed").
func TestOverloadDriver(t *testing.T) {
	want := []string{
		"1m0s | 0.5× | 1.0000 | 1.0000 | 0.0000 | 0.0000 | 49.0",
		"1m0s | 1× | 0.9922 | 0.9837 | 0.0078 | 0.0000 | 293.6",
		"1m0s | 1.5× | 0.8314 | 0.6660 | 0.1686 | 0.0000 | 311.4",
		"1m0s | 3× | 0.6351 | 0.3339 | 0.3649 | 0.0000 | 315.2",
		"1s | 0.5× | 1.0000 | 1.0000 | 0.0000 | 0.0000 | 49.0",
		"1s | 1× | 0.9922 | 0.9837 | 0.0078 | 0.0000 | 293.6",
		"1s | 1.5× | 0.8314 | 0.6660 | 0.1686 | 0.0000 | 311.4",
		"1s | 3× | 0.6351 | 0.3339 | 0.3649 | 0.0000 | 315.2",
	}
	got := overloadRows(t, resilience.DefaultAdmissionLimit)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("overload rows (deadline | load | answered | goodput | shed | timeout | p99 ms):\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
