package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/xrand"
)

// The synthetic V workloads are two-device partition workloads too,
// as hetcc's and hetspmm's are: the threshold t is the partition
// {t, 100 - t}, so the N=2 parity tests run the scalar and the vector
// interface of one workload.

func (w *vWorkload) Devices() int { return 2 }

func (w *vWorkload) EvaluatePartition(p Partition) (time.Duration, error) { return w.Evaluate(p[0]) }

func (w *sampledV) SamplePartition(ctx context.Context, r *xrand.Rand) (PartitionWorkload, time.Duration, error) {
	sw, cost, err := w.Sample(ctx, r)
	if err != nil {
		return nil, 0, err
	}
	return sw.(*vWorkload), cost, nil
}

func (w *sampledV) ExtrapolatePartition(p Partition) Partition {
	return Partition{p[0] + w.extraShift, p[1] - w.extraShift}
}

// fullV is a V-landscape workload with both sampling and race
// support, so every searcher exercises its native path through the
// partition interface.
type fullV struct {
	sampledV
	raceGuess float64
}

func (w *fullV) EstimateByRace() (float64, time.Duration, error) {
	return w.raceGuess, 5 * time.Millisecond, nil
}

func (w *fullV) EstimatePartitionByRace() (Partition, time.Duration, error) {
	return Partition{w.raceGuess, 100 - w.raceGuess}, 5 * time.Millisecond, nil
}

// steppyV has plateaus (ties) so the parity tests exercise the
// tracker's tie-breaking through the partition path.
type steppyV struct {
	name string
	opt  float64
}

func (w *steppyV) Name() string { return w.name }

func (w *steppyV) Evaluate(t float64) (time.Duration, error) {
	steps := math.Floor(math.Abs(t-w.opt) / 10)
	return time.Second + time.Duration(steps)*time.Millisecond, nil
}

func (w *steppyV) Devices() int { return 2 }

func (w *steppyV) EvaluatePartition(p Partition) (time.Duration, error) { return w.Evaluate(p[0]) }

// bowlN is a quadratic bowl over the N-device simplex with its
// minimum at opt, optionally failing at one injected partition.
type bowlN struct {
	name    string
	opt     Partition
	base    time.Duration
	failAt  Partition
	failErr error
}

func (b *bowlN) Name() string { return b.name }

func (b *bowlN) Devices() int { return len(b.opt) }

func (b *bowlN) EvaluatePartition(p Partition) (time.Duration, error) {
	if len(p) != len(b.opt) {
		return 0, fmt.Errorf("bowlN: got %d shares, want %d", len(p), len(b.opt))
	}
	if b.failAt != nil {
		hit := true
		for i := range p {
			if math.Abs(p[i]-b.failAt[i]) > 1e-9 {
				hit = false
				break
			}
		}
		if hit {
			return 0, b.failErr
		}
	}
	var s float64
	for i := range p {
		d := p[i] - b.opt[i]
		s += d * d
	}
	return b.base + time.Duration(s*float64(time.Microsecond)), nil
}

// sampledBowlN adds sampling: the miniature's optimum is shifted
// deterministically from the repeat's RNG stream.
type sampledBowlN struct {
	bowlN
	shift float64
}

func (b *sampledBowlN) SamplePartition(ctx context.Context, r *xrand.Rand) (PartitionWorkload, time.Duration, error) {
	opt := b.opt.Clone()
	var sum float64
	for i := 0; i < len(opt)-1; i++ {
		opt[i] += b.shift * (r.Float64() - 0.5)
		if opt[i] < 0 {
			opt[i] = 0
		}
		sum += opt[i]
	}
	opt[len(opt)-1] = 100 - sum
	inner := b.bowlN
	inner.name += "-sample"
	inner.opt = opt
	inner.base = b.base / 100
	return &inner, time.Millisecond, nil
}

func (b *sampledBowlN) ExtrapolatePartition(p Partition) Partition { return p }

func TestPartitionValidate(t *testing.T) {
	cases := []struct {
		name      string
		p         Partition
		wantIndex int  // meaningful when wantErr
		wantErr   bool //
	}{
		{name: "valid", p: Partition{60, 30, 10}},
		{name: "valid-two", p: Partition{12.5, 87.5}},
		{name: "valid-zero-share", p: Partition{0, 100}},
		{name: "rounding-noise", p: Partition{100.0 / 3, 100.0 / 3, 100 - 200.0/3}},
		{name: "sub-resolution-drift", p: Partition{50 + 1e-9, 50 - 1e-9}},
		{name: "negative", p: Partition{-1, 101}, wantErr: true, wantIndex: 0},
		{name: "negative-middle", p: Partition{50, -10, 60}, wantErr: true, wantIndex: 1},
		{name: "under-100", p: Partition{40, 40}, wantErr: true, wantIndex: -1},
		{name: "over-100", p: Partition{80, 80}, wantErr: true, wantIndex: -1},
		{name: "off-by-millipercent", p: Partition{50, 50.001}, wantErr: true, wantIndex: -1},
		{name: "too-short", p: Partition{100}, wantErr: true, wantIndex: -1},
		{name: "empty", p: nil, wantErr: true, wantIndex: -1},
		{name: "nan", p: Partition{math.NaN(), 50}, wantErr: true, wantIndex: 0},
		{name: "inf", p: Partition{50, math.Inf(1)}, wantErr: true, wantIndex: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("Validate(%v) = %v, want nil", tc.p, err)
				}
				return
			}
			var pe *PartitionError
			if !errors.As(err, &pe) {
				t.Fatalf("Validate(%v) = %v, want *PartitionError", tc.p, err)
			}
			if pe.Index != tc.wantIndex {
				t.Errorf("Index = %d, want %d (err: %v)", pe.Index, tc.wantIndex, pe)
			}
			if pe.Error() == "" {
				t.Error("empty error string")
			}
		})
	}
}

func TestEqualPartitionSumsTo100(t *testing.T) {
	for n := 2; n <= 7; n++ {
		p := EqualPartition(n)
		if err := p.Validate(); err != nil {
			t.Errorf("EqualPartition(%d) = %v: %v", n, p, err)
		}
	}
	if EqualPartition(1) != nil {
		t.Error("EqualPartition(1) should be nil")
	}
}

// parityCase pairs a scalar searcher with the workload flavor it
// needs; raced selects the race-capable workload.
type parityCase struct {
	name     string
	searcher Searcher
}

func parityWorkload(raced bool) interface {
	Workload
	PartitionWorkload
} {
	base := sampledV{vWorkload: vWorkload{name: "parity-v", opt: 63, base: time.Second, slope: 7 * time.Millisecond}}
	if raced {
		return &fullV{sampledV: base, raceGuess: 58}
	}
	return &base
}

// TestSimplexN2BitIdentity is the tentpole's core property: on a
// 2-device workload, every scalar searcher run through the simplex
// machinery produces bit-identical results to the scalar search —
// same Best, BestTime, Evals, Cost, and curve — on both the
// sequential and the parallel engine.
func TestSimplexN2BitIdentity(t *testing.T) {
	searchers := []parityCase{
		{"exhaustive", Exhaustive{}},
		{"exhaustive-step3", Exhaustive{Step: 3}},
		{"coarse-to-fine", CoarseToFine{}},
		{"gradient", GradientDescent{}},
		{"race-then-fine", RaceThenFine{}},
		{"race-fallback", RaceThenFine{}}, // workload without race support
	}
	for _, tc := range searchers {
		raced := tc.name == "race-then-fine"
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, par), func(t *testing.T) {
				ctx := WithParallelism(context.Background(), par)
				w := parityWorkload(raced)
				want, err := tc.searcher.Search(ctx, w, 0, 100)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SimplexSearch{Axis: tc.searcher}.SearchPartition(ctx, w, 0, 100)
				if err != nil {
					t.Fatal(err)
				}
				assertParity(t, want, got)
			})
		}
	}
}

// TestSimplexN2BitIdentityPlateaus repeats the parity property on a
// plateau landscape where many thresholds tie — the case that
// exercises the tracker's lowest-threshold-wins rule.
func TestSimplexN2BitIdentityPlateaus(t *testing.T) {
	for _, par := range []int{1, 8} {
		for _, s := range []Searcher{Exhaustive{}, CoarseToFine{}, GradientDescent{}} {
			ctx := WithParallelism(context.Background(), par)
			w := &steppyV{name: "steppy", opt: 41}
			want, err := s.Search(ctx, w, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimplexSearch{Axis: s}.SearchPartition(ctx, w, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			assertParity(t, want, got)
		}
	}
}

// assertParity checks a scalar SearchResult against the 2-device
// SimplexResult observation for observation.
func assertParity(t *testing.T, want SearchResult, got SimplexResult) {
	t.Helper()
	if len(got.Best) != 2 {
		t.Fatalf("Best has %d shares", len(got.Best))
	}
	if got.Best[0] != want.Best {
		t.Errorf("Best[0] = %v, want %v", got.Best[0], want.Best)
	}
	if got.Best[1] != 100-want.Best {
		t.Errorf("Best[1] = %v, want %v", got.Best[1], 100-want.Best)
	}
	if got.BestTime != want.BestTime {
		t.Errorf("BestTime = %v, want %v", got.BestTime, want.BestTime)
	}
	if got.Evals != want.Evals {
		t.Errorf("Evals = %d, want %d", got.Evals, want.Evals)
	}
	if got.Cost != want.Cost {
		t.Errorf("Cost = %v, want %v", got.Cost, want.Cost)
	}
	if len(got.Curve) != len(want.Curve) {
		t.Fatalf("Curve has %d points, want %d", len(got.Curve), len(want.Curve))
	}
	for i := range want.Curve {
		if got.Curve[i].P[0] != want.Curve[i].T || got.Curve[i].Time != want.Curve[i].Time {
			t.Fatalf("Curve[%d] = (%v, %v), want (%v, %v)",
				i, got.Curve[i].P[0], got.Curve[i].Time, want.Curve[i].T, want.Curve[i].Time)
		}
	}
}

// TestEstimatePartitionN2MatchesEstimateThreshold extends the parity
// property to the whole Sample → Identify → Extrapolate pipeline:
// same seed, same repeats, same estimate.
func TestEstimatePartitionN2MatchesEstimateThreshold(t *testing.T) {
	for _, par := range []int{1, 8} {
		for _, searcher := range []Searcher{CoarseToFine{}, RaceThenFine{}} {
			cfg := Config{Searcher: searcher, Seed: 77, Repeats: 3, Parallelism: par}
			w := parityWorkload(true).(*fullV)
			want, err := EstimateThreshold(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EstimatePartition(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Partition[0] != want.Threshold {
				t.Errorf("par %d: Partition[0] = %v, want %v", par, got.Partition[0], want.Threshold)
			}
			if got.SamplePartition[0] != want.SampleThreshold {
				t.Errorf("par %d: SamplePartition[0] = %v, want %v", par, got.SamplePartition[0], want.SampleThreshold)
			}
			if got.Evals != want.Evals {
				t.Errorf("par %d: Evals = %d, want %d", par, got.Evals, want.Evals)
			}
			if got.SampleCost != want.SampleCost || got.IdentifyCost != want.IdentifyCost {
				t.Errorf("par %d: costs = (%v, %v), want (%v, %v)",
					par, got.SampleCost, got.IdentifyCost, want.SampleCost, want.IdentifyCost)
			}
			if err := got.Partition.Validate(); err != nil {
				t.Errorf("estimate partition invalid: %v", err)
			}
		}
	}
}

func TestSimplexSearchFindsOptimum(t *testing.T) {
	w := &bowlN{name: "bowl3", opt: Partition{20, 50, 30}, base: time.Second}
	res, err := SimplexSearch{}.SearchPartition(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range w.opt {
		if math.Abs(res.Best[i]-want) > 2 {
			t.Errorf("Best[%d] = %v, want ~%v (best %v)", i, res.Best[i], want, res.Best)
		}
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("best not a valid partition: %v", err)
	}
	if res.Evals == 0 || res.Cost == 0 || len(res.Curve) != res.Evals {
		t.Errorf("bookkeeping: evals=%d cost=%v curve=%d", res.Evals, res.Cost, len(res.Curve))
	}
}

func TestSimplexSearchWithinFiveDollarsOfExhaustive(t *testing.T) {
	// The sampled search must land within 5% of the exhaustive simplex
	// optimum — the repo's acceptance bar for partition identification.
	w := &bowlN{name: "bowl3", opt: Partition{23, 48, 29}, base: 50 * time.Millisecond}
	gold, err := ExhaustiveSimplex{}.SearchPartition(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	found, err := SimplexSearch{}.SearchPartition(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gap := float64(found.BestTime)/float64(gold.BestTime) - 1; gap > 0.05 {
		t.Errorf("identified best %v (%v) is %.1f%% above exhaustive optimum %v (%v)",
			found.Best, found.BestTime, 100*gap, gold.Best, gold.BestTime)
	}
	if found.Evals >= gold.Evals/4 {
		t.Errorf("coordinate descent used %d evals, exhaustive %d — expected a big saving", found.Evals, gold.Evals)
	}
}

func TestSimplexBoundaryOptima(t *testing.T) {
	cases := []Partition{
		{0, 60, 40}, // CPU gets nothing
		{0, 0, 100}, // everything on the last device
		{100, 0, 0}, // everything on the first device
		{35, 0, 65}, // a middle device gets nothing
	}
	for _, opt := range cases {
		t.Run(opt.String(), func(t *testing.T) {
			w := &bowlN{name: "edge", opt: opt, base: 100 * time.Millisecond}
			res, err := SimplexSearch{}.SearchPartition(context.Background(), w, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			for i := range opt {
				if math.Abs(res.Best[i]-opt[i]) > 2 {
					t.Errorf("Best = %v, want ~%v", res.Best, opt)
					break
				}
			}
			if err := res.Best.Validate(); err != nil {
				t.Errorf("boundary best invalid: %v", err)
			}
		})
	}
}

func TestSimplexAllOneDeviceVectorsEvaluate(t *testing.T) {
	// Degenerate all-one-device vectors are legal inputs end to end.
	w := &bowlN{name: "bowl3", opt: Partition{20, 50, 30}, base: time.Second}
	for i := 0; i < 3; i++ {
		p := Partition{0, 0, 0}
		p[i] = 100
		if _, err := w.EvaluatePartition(p); err != nil {
			t.Errorf("EvaluatePartition(%v): %v", p, err)
		}
	}
}

func TestExhaustiveSimplexN2MatchesScalarExhaustive(t *testing.T) {
	for _, par := range []int{1, 8} {
		ctx := WithParallelism(context.Background(), par)
		w := parityWorkload(false)
		want, err := Exhaustive{}.Search(ctx, w, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExhaustiveSimplex{}.SearchPartition(ctx, w, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		assertParity(t, want, got)
	}
}

func TestExhaustiveSimplexEnumeratesWholeSimplex(t *testing.T) {
	w := &bowlN{name: "bowl3", opt: Partition{10, 70, 20}, base: time.Millisecond}
	res, err := ExhaustiveSimplex{Step: 10}.SearchPartition(context.Background(), w, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Shares 0,10,...,100 with s0+s1 <= 100: sum_{k=0..10} (11-k) = 66.
	if res.Evals != 66 {
		t.Errorf("evals = %d, want 66", res.Evals)
	}
	if !reflect.DeepEqual(res.Best, Partition{10, 70, 20}) {
		t.Errorf("best = %v, want 10/70/20", res.Best)
	}
}

// TestParallelSimplexDeterminism: the simplex searchers must return
// bit-identical results at any parallelism (the -race CI suite runs
// this under the determinism step).
func TestParallelSimplexDeterminism(t *testing.T) {
	workloads := []*bowlN{
		{name: "bowl3", opt: Partition{23, 48, 29}, base: 50 * time.Millisecond},
		{name: "bowl4", opt: Partition{10, 42, 18, 30}, base: 50 * time.Millisecond},
	}
	searchers := []SimplexSearcher{
		SimplexSearch{},
		SimplexSearch{Axis: Exhaustive{}},
		SimplexSearch{Axis: GradientDescent{}},
		ExhaustiveSimplex{Step: 5},
	}
	for _, w := range workloads {
		for _, s := range searchers {
			seq, err := s.SearchPartition(WithParallelism(context.Background(), 1), w, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			par, err := s.SearchPartition(WithParallelism(context.Background(), 8), w, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Best, par.Best) || seq.BestTime != par.BestTime ||
				seq.Evals != par.Evals || seq.Cost != par.Cost {
				t.Errorf("%s on %s: P=1 (%v, %v, %d) != P=8 (%v, %v, %d)",
					s.Name(), w.name, seq.Best, seq.BestTime, seq.Evals, par.Best, par.BestTime, par.Evals)
			}
			if !reflect.DeepEqual(seq.Curve, par.Curve) {
				t.Errorf("%s on %s: curves differ between P=1 and P=8", s.Name(), w.name)
			}
		}
	}
}

// TestParallelSimplexFailureInjection: an evaluation failing at an
// arbitrary simplex point surfaces the same error at any parallelism.
func TestParallelSimplexFailureInjection(t *testing.T) {
	boom := errors.New("injected device fault")
	points := []Partition{
		{37, 34, 29}, // interior grid point (axis 0 = 37 while others split)
		{0, 71, 29},  // boundary: zero CPU share
	}
	for _, at := range points {
		w := &bowlN{name: "faulty", opt: Partition{23, 48, 29}, base: 50 * time.Millisecond, failAt: at, failErr: boom}
		var errs []error
		for _, par := range []int{1, 8} {
			_, err := ExhaustiveSimplex{}.SearchPartition(WithParallelism(context.Background(), par), w, 0, 100)
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("failAt %v par %d: err = %v, want injected fault", at, par, err)
			}
			errs = append(errs, err)
		}
		if errs[0].Error() != errs[1].Error() {
			t.Errorf("failAt %v: error blame differs: %q vs %q", at, errs[0], errs[1])
		}
	}
}

func TestEstimatePartitionThreeDevices(t *testing.T) {
	w := &sampledBowlN{bowlN: bowlN{name: "bowl3", opt: Partition{20, 50, 30}, base: time.Second}, shift: 6}
	for _, par := range []int{1, 8} {
		est, err := EstimatePartition(context.Background(), w, Config{Seed: 42, Repeats: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Partition.Validate(); err != nil {
			t.Fatalf("estimate %v invalid: %v", est.Partition, err)
		}
		for i, want := range w.opt {
			if math.Abs(est.Partition[i]-want) > 6 {
				t.Errorf("Partition[%d] = %v, want ~%v", i, est.Partition[i], want)
			}
		}
		if est.Repeats != 3 || est.Evals == 0 || est.Overhead() == 0 {
			t.Errorf("bookkeeping: %+v", est)
		}
	}
	// Determinism across parallelism for the full pipeline.
	seq, _ := EstimatePartition(context.Background(), w, Config{Seed: 42, Repeats: 3, Parallelism: 1})
	par, _ := EstimatePartition(context.Background(), w, Config{Seed: 42, Repeats: 3, Parallelism: 8})
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("pipeline differs across parallelism:\n%+v\n%+v", seq, par)
	}
}

func TestProjectToSimplex(t *testing.T) {
	got, err := projectToSimplex(Partition{-10, 60, 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("projection %v invalid: %v", got, err)
	}
	if got[0] != 0 || math.Abs(got[1]-50) > 1e-9 {
		t.Errorf("projection = %v, want 0/50/50", got)
	}
	if _, err := projectToSimplex(Partition{-1, -2}); err == nil {
		t.Error("all-negative projection should fail")
	}
}

func TestSimplexRejectsDegenerateWorkloads(t *testing.T) {
	w := &bowlN{name: "one", opt: Partition{100}, base: time.Second}
	if _, err := (SimplexSearch{}).SearchPartition(context.Background(), w, 0, 100); err == nil {
		t.Error("1-device workload should be rejected")
	}
	if _, err := (ExhaustiveSimplex{}).SearchPartition(context.Background(), w, 0, 100); err == nil {
		t.Error("1-device workload should be rejected by exhaustive too")
	}
}

func TestPartitionString(t *testing.T) {
	if s := (Partition{60, 30, 10}).String(); s != "60/30/10" {
		t.Errorf("String() = %q", s)
	}
}
