// Package rng provides deterministic, seedable random number generation for
// the Loki simulation substrates.
//
// Every experiment in this repository must be exactly reproducible from a
// seed, across platforms and Go releases. The standard library's global
// rand functions are convenient but their stream is not guaranteed stable
// across releases, so this package implements its own small, well-known
// generators: SplitMix64 for seeding and xoshiro256** for the main stream.
// On top of the raw stream it offers the distributions the simulations
// need: uniform, normal (Gaussian), Bernoulli, categorical, Zipf, Poisson
// and permutations.
//
// The zero value of RNG is not usable; construct one with New. RNG is not
// safe for concurrent use; give each goroutine its own RNG, typically via
// Split.
package rng

import (
	"errors"
	"fmt"
	"math"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256**. It is intentionally small: 4 words of state.
type RNG struct {
	s [4]uint64
	// cached spare normal variate for the polar method
	haveSpare bool
	spare     float64
}

// New returns an RNG seeded from the given seed. Two RNGs constructed with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a single 64-bit seed using
// SplitMix64, which guarantees the four state words are well mixed even
// for adjacent seeds.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.haveSpare = false
}

// splitMix64 advances the SplitMix64 state and returns the new state and
// the output word.
func splitMix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)

	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Split derives an independent generator from this one. The child stream
// is decorrelated from the parent by reseeding through SplitMix64, so a
// parent and its children may be used in different goroutines.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// multiply-shift rejection method, which avoids modulo bias.
func (r *RNG) boundedUint64(bound uint64) uint64 {
	if bound == 0 {
		panic("rng: bounded draw with bound 0")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: IntRange with hi=%d < lo=%d", hi, lo))
	}
	return lo + r.Intn(hi-lo+1)
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, using the Marsaglia polar method. sigma must be
// non-negative; sigma == 0 returns mean exactly.
func (r *RNG) Normal(mean, sigma float64) float64 {
	if sigma < 0 {
		panic(fmt.Sprintf("rng: Normal called with sigma=%g < 0", sigma))
	}
	if sigma == 0 {
		return mean
	}
	return mean + sigma*r.StdNormal()
}

// StdNormal returns a standard normal variate (mean 0, stddev 1).
func (r *RNG) StdNormal() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// Laplace returns a Laplace-distributed variate with location mu and
// scale b > 0, via inverse transform sampling.
func (r *RNG) Laplace(mu, b float64) float64 {
	if b <= 0 {
		panic(fmt.Sprintf("rng: Laplace called with scale b=%g <= 0", b))
	}
	u := r.Float64() - 0.5
	return mu - b*sign(u)*math.Log(1-2*math.Abs(u))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Bernoulli returns true with probability p. p is clamped to [0, 1].
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exponential returns an exponentially distributed variate with the given
// rate lambda > 0.
func (r *RNG) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic(fmt.Sprintf("rng: Exponential called with lambda=%g <= 0", lambda))
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Poisson returns a Poisson-distributed variate with mean lambda >= 0.
// For small lambda it uses Knuth's product method; for large lambda a
// normal approximation with continuity correction, which is adequate for
// the workload generators in this repository.
func (r *RNG) Poisson(lambda float64) int {
	switch {
	case lambda < 0:
		panic(fmt.Sprintf("rng: Poisson called with lambda=%g < 0", lambda))
	case lambda == 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place.
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function, like
// math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or either is negative.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("rng: Sample(n=%d, k=%d) out of range", n, k))
	}
	// Partial Fisher–Yates: only the first k slots are needed.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// Categorical draws an index from the (unnormalized, non-negative) weight
// vector w. It returns an error if w is empty, contains a negative or
// non-finite weight, or sums to zero.
func (r *RNG) Categorical(w []float64) (int, error) {
	if len(w) == 0 {
		return 0, errors.New("rng: Categorical with empty weights")
	}
	total := 0.0
	for i, wi := range w {
		if wi < 0 || math.IsNaN(wi) || math.IsInf(wi, 0) {
			return 0, fmt.Errorf("rng: Categorical weight %d is invalid (%g)", i, wi)
		}
		total += wi
	}
	if total <= 0 {
		return 0, errors.New("rng: Categorical weights sum to zero")
	}
	x := r.Float64() * total
	acc := 0.0
	for i, wi := range w {
		acc += wi
		if x < acc {
			return i, nil
		}
	}
	return len(w) - 1, nil // floating point edge: return last bucket
}

// MustCategorical is Categorical for weight vectors known to be valid; it
// panics on error. Use it only with hard-coded weights.
func (r *RNG) MustCategorical(w []float64) int {
	i, err := r.Categorical(w)
	if err != nil {
		panic(err)
	}
	return i
}

// Zipf draws from a Zipf distribution over {0, 1, ..., n-1} with exponent
// s > 0: P(k) proportional to 1/(k+1)^s. The sampler precomputes nothing,
// so for tight loops prefer NewZipf.
func (r *RNG) Zipf(n int, s float64) int {
	z := NewZipf(n, s)
	return z.Draw(r)
}

// Zipfian is a precomputed Zipf sampler over {0..n-1} using the inverse
// CDF method on a cumulative table. Construction is O(n), draws are
// O(log n).
type Zipfian struct {
	cum []float64
}

// NewZipf builds a Zipf sampler with n ranks and exponent s. It panics if
// n <= 0 or s <= 0.
func NewZipf(n int, s float64) *Zipfian {
	if n <= 0 || s <= 0 {
		panic(fmt.Sprintf("rng: NewZipf(n=%d, s=%g) out of range", n, s))
	}
	cum := make([]float64, n)
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += 1 / math.Pow(float64(k+1), s)
		cum[k] = acc
	}
	// Normalize so cum[n-1] == 1 exactly.
	for k := range cum {
		cum[k] /= acc
	}
	cum[n-1] = 1
	return &Zipfian{cum: cum}
}

// Draw samples a rank in [0, n).
func (z *Zipfian) Draw(r *RNG) int {
	x := r.Float64()
	// Binary search for the first index with cum[i] > x.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// N returns the number of ranks the sampler was built with.
func (z *Zipfian) N() int { return len(z.cum) }
