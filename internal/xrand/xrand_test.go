package xrand

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Golden values pin the generator's output so that any change to
	// the mixing constants (which would silently change every sampled
	// experiment input) fails loudly.
	sm := NewSplitMix64(1234567)
	want := []uint64{
		0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("SplitMix64 value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square over 10 buckets; loose bound, just catches gross bias.
	r := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(trials) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; 99.9th percentile is ~27.9.
	if chi2 > 35 {
		t.Fatalf("chi2 = %v indicates non-uniform Uint64n", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntsProperties(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint16) bool {
		n := int(nRaw%2000) + 1
		k := int(kRaw) % (n + 1)
		r := New(seed)
		s := r.SampleInts(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v { // strictly ascending => distinct
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntsCoverage(t *testing.T) {
	// Every element should be selected at least occasionally.
	r := New(8)
	const n = 50
	hits := make([]int, n)
	for trial := 0; trial < 2000; trial++ {
		for _, v := range r.SampleInts(n, 5) {
			hits[v]++
		}
	}
	for i, h := range hits {
		if h == 0 {
			t.Fatalf("element %d never sampled in 2000 trials", i)
		}
	}
}

func TestSampleIntsEdges(t *testing.T) {
	r := New(9)
	if got := r.SampleInts(10, 0); got != nil {
		t.Fatalf("SampleInts(10,0) = %v, want nil", got)
	}
	full := r.SampleInts(10, 10)
	for i, v := range full {
		if v != i {
			t.Fatalf("SampleInts(10,10) = %v, want identity", full)
		}
	}
	for _, c := range [][2]int{{3, 4}, {math.MaxInt32 + 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SampleInts(%d,%d) did not panic", c[0], c[1])
				}
			}()
			r.SampleInts(c[0], c[1])
		}()
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(21)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split generators share %d of 1000 values", same)
	}
}

func TestZipfRangeAndMonotoneMass(t *testing.T) {
	r := New(17)
	for _, n := range []uint64{2, 10, 1000, 1 << 17} {
		z := NewZipf(r, n, 1.5)
		counts := make(map[uint64]int)
		for i := 0; i < 20000; i++ {
			v := z.Next()
			if v >= n {
				t.Fatalf("Zipf(n=%d) produced %d", n, v)
			}
			counts[v]++
		}
		// Rank 0 should dominate rank min(9, n-1) clearly.
		hi := counts[0]
		lo := counts[minU64(9, n-1)]
		if hi <= lo {
			t.Fatalf("Zipf(n=%d): mass(0)=%d <= mass(tail)=%d", n, hi, lo)
		}
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func TestZipfExponentEffect(t *testing.T) {
	r := New(19)
	heavy := NewZipf(r, 1000, 2.5)
	light := NewZipf(r, 1000, 1.01)
	headHeavy, headLight := 0, 0
	for i := 0; i < 10000; i++ {
		if heavy.Next() == 0 {
			headHeavy++
		}
		if light.Next() == 0 {
			headLight++
		}
	}
	if headHeavy <= headLight {
		t.Fatalf("steeper exponent should concentrate mass: %d vs %d", headHeavy, headLight)
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(1)
	for _, bad := range []struct {
		n uint64
		s float64
	}{{0, 1.5}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%d, %v) did not panic", bad.n, bad.s)
				}
			}()
			NewZipf(r, bad.n, bad.s)
		}()
	}
}

func TestPowerLawDegreesSumAndBounds(t *testing.T) {
	r := New(23)
	const n, dmin, dmax, target = 5000, 1, 400, 60000
	d := PowerLawDegrees(r, n, 1.8, dmin, dmax, target)
	if len(d) != n {
		t.Fatalf("got %d degrees, want %d", len(d), n)
	}
	sum := 0
	for _, v := range d {
		if v < dmin || v > dmax {
			t.Fatalf("degree %d outside [%d,%d]", v, dmin, dmax)
		}
		sum += v
	}
	if sum != target {
		t.Fatalf("degree sum = %d, want %d", sum, target)
	}
}

func TestPowerLawDegreesSkew(t *testing.T) {
	r := New(29)
	d := PowerLawDegrees(r, 10000, 2.0, 1, 1000, 50000)
	// A power law should have median well below mean.
	sorted := append([]int(nil), d...)
	insertionSortInts(sorted)
	median := sorted[len(sorted)/2]
	mean := 50000.0 / 10000.0
	if float64(median) >= mean {
		t.Fatalf("median %d >= mean %v; distribution not skewed", median, mean)
	}
	if sorted[len(sorted)-1] < 10*median {
		t.Fatalf("max degree %d not heavy-tailed vs median %d", sorted[len(sorted)-1], median)
	}
}

func TestPowerLawDegreesClampedTarget(t *testing.T) {
	r := New(31)
	// Target below n*dmin must clamp to n*dmin.
	d := PowerLawDegrees(r, 100, 1.5, 2, 10, 1)
	sum := 0
	for _, v := range d {
		sum += v
	}
	if sum != 200 {
		t.Fatalf("clamped sum = %d, want 200", sum)
	}
	// Empty input.
	if out := PowerLawDegrees(r, 0, 1.5, 1, 5, 10); out != nil {
		t.Fatalf("n=0 should return nil, got %v", out)
	}
}

func TestInsertionSortInts(t *testing.T) {
	f := func(a []int) bool {
		b := append([]int(nil), a...)
		insertionSortInts(b)
		for i := 1; i < len(b); i++ {
			if b[i-1] > b[i] {
				return false
			}
		}
		// Same multiset: compare counts.
		count := map[int]int{}
		for _, v := range a {
			count[v]++
		}
		for _, v := range b {
			count[v]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkZipfLarge(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1<<20, 1.6)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = z.Next()
	}
	_ = sink
}

func BenchmarkSampleIntsSqrtN(b *testing.B) {
	r := New(1)
	const n = 1 << 20
	k := 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.SampleInts(n, k)
	}
}

// BenchmarkSampleIntsQuarterN draws the SpMM sampler's n/4 rows out of
// a served-size replica, the Fisher-Yates path: once through
// SampleInts, which pays for a fresh identity buffer per draw, and
// once through a reused Subset, which restores only what it touched.
func BenchmarkSampleIntsQuarterN(b *testing.B) {
	const n = 100_000
	b.Run("fresh", func(b *testing.B) {
		r := New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = r.SampleInts(n, n/4)
		}
	})
	b.Run("reused", func(b *testing.B) {
		r := New(1)
		var s Subset
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Draw(r, n, n/4)
		}
	})
}

// sampleIntsRef is SampleInts as it was before the bitset scan and
// slices.Sort: the same draws, sorted by insertionSortInts.
func sampleIntsRef(r *Rand, n, k int) []int {
	if k == 0 {
		return nil
	}
	if k*8 < n {
		chosen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := r.Intn(j + 1)
			if _, dup := chosen[t]; dup {
				t = j
			}
			chosen[t] = struct{}{}
			out = append(out, t)
		}
		insertionSortInts(out)
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := idx[:k]
	insertionSortInts(out)
	return out
}

// TestSampleIntsMatchesReference pins SampleInts to the pre-bitset
// implementation: the same sorted set for the same seed, and the same
// generator state afterwards, over both paths, k = 0, k = n and the
// k*8 < n boundary.
func TestSampleIntsMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 100, 129, 1000, 4099, 20000} {
		ks := map[int]bool{0: true, n: true, n / 2: true}
		for _, k := range []int{1, n - 1, n/8 - 1, n / 8, n/8 + 1, (n + 7) / 8} { // k*8 < n boundary
			if k >= 0 && k <= n {
				ks[k] = true
			}
		}
		for k := range ks {
			for seed := uint64(1); seed <= 16; seed++ {
				a, b := New(seed), New(seed)
				got, want := a.SampleInts(n, k), sampleIntsRef(b, n, k)
				if len(got) != len(want) {
					t.Fatalf("n=%d k=%d seed=%d: %d values, reference %d", n, k, seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d seed=%d: value %d = %d, reference %d", n, k, seed, i, got[i], want[i])
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("n=%d k=%d seed=%d: generator state diverged", n, k, seed)
				}
			}
		}
	}
}

// checkSubsetDraw draws (n, k) from s and from sampleIntsRef on two
// generators seeded alike and reports the first difference in the set
// or in the generator state afterwards.
func checkSubsetDraw(s *Subset, seed uint64, n, k int) error {
	a, b := New(seed), New(seed)
	got, want := s.Draw(a, n, k), sampleIntsRef(b, n, k)
	if len(got) != len(want) {
		return fmt.Errorf("n=%d k=%d seed=%d: %d values, reference %d", n, k, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("n=%d k=%d seed=%d: value %d = %d, reference %d", n, k, seed, i, got[i], want[i])
		}
	}
	if a.Uint64() != b.Uint64() {
		return fmt.Errorf("n=%d k=%d seed=%d: generator state diverged", n, k, seed)
	}
	return nil
}

// TestSubsetMatchesReference holds one reused Subset to the reference
// over a random sequence of (n, k) pairs on both sides of the k*8 < n
// boundary, shrinking and growing n: a bitset word or an output value
// left over from one draw would change a later one.
func TestSubsetMatchesReference(t *testing.T) {
	var s Subset
	pick := New(404)
	for step := 0; step < 3000; step++ {
		n := pick.Intn(1 << (1 + pick.Intn(14)))
		k := 0
		switch pick.Intn(4) {
		case 0:
			k = pick.Intn(n/8 + 1) // Floyd
		case 1:
			k = n/8 + pick.Intn(3) - 1 // the boundary
		case 2:
			k = pick.Intn(n + 1)
		default:
			k = n
		}
		k = max(0, min(k, n))
		if err := checkSubsetDraw(&s, uint64(step), n, k); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// FuzzSubsetMatchesReference drives one Subset through a fuzzed
// sequence of draws, each pair of input bytes choosing n and k, and
// holds every draw to the reference.
func FuzzSubsetMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{200, 10, 16, 2, 255, 255, 3, 0})
	f.Add(uint64(7), []byte{64, 8, 65, 8, 63, 8, 9, 1})
	f.Fuzz(func(t *testing.T, seed uint64, plan []byte) {
		var s Subset
		for i := 0; i+1 < len(plan) && i < 64; i += 2 {
			n := int(plan[i]) * (1 + int(plan[i+1])%8)
			k := int(plan[i+1]) % (n + 1)
			if err := checkSubsetDraw(&s, seed+uint64(i), n, k); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// insertionSortInts is the hand-rolled sort SampleInts used before
// slices.Sort, kept as sampleIntsRef's sort (TestInsertionSortInts
// checks it).
func insertionSortInts(a []int) {
	if len(a) > 64 {
		// Shell-style gap pass keeps worst case tolerable for larger k.
		for gap := len(a) / 2; gap > 0; gap /= 2 {
			for i := gap; i < len(a); i++ {
				v := a[i]
				j := i
				for j >= gap && a[j-gap] > v {
					a[j] = a[j-gap]
					j -= gap
				}
				a[j] = v
			}
		}
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
