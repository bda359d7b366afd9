// Package xrand provides small, fast, deterministic random number
// generators and distribution samplers used throughout the repository.
//
// Everything in this package is seedable and carries no global state, so
// experiments are exactly reproducible: the same seed yields the same
// sampled inputs, the same sampled sub-instances, and therefore the same
// estimated thresholds on every run and platform.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as
// recommended by its authors. Both pass BigCrush; neither is
// cryptographically secure, which is fine for workload sampling.
package xrand

// SplitMix64 is a tiny 64-bit generator used mainly to expand a single
// seed word into the larger state of other generators. The zero value is
// a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next pseudo-random 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; give each goroutine its own instance (see Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// xoshiro must not be seeded with the all-zero state; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split returns a new generator whose stream is independent of r's for
// all practical purposes. It is the supported way to hand seeds to
// worker goroutines.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's method with a
// rejection step to remove modulo bias. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top of the range.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
