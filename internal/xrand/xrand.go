// Package xrand implements a small, fast, deterministic pseudo-random number
// generator used by the dataset synthesiser and the sensor noise model.
//
// The standard library's math/rand is avoided so that generated recordings
// are reproducible byte-for-byte across Go releases: math/rand's stream is
// not guaranteed stable between versions, while this package's SplitMix64 /
// xoshiro256** pair is a fixed published algorithm.
package xrand

import (
	"math"
	"math/bits"
)

// splitMix64 advances the given state and returns the next output of the
// SplitMix64 generator (Steele, Lea & Flood 2014). It is used only to seed
// xoshiro256**.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s [4]uint64
	// spare Gaussian from the last Box-Muller pair, if any.
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded from the given seed via SplitMix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// A xoshiro state of all zeros would be a fixed point; SplitMix64 cannot
	// produce four zero outputs in a row, so no further check is needed.
	return &r
}

// next is one xoshiro256** step on a state held in locals: it returns the
// output and the advanced state.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	s2 ^= s0
	s3 ^= s1
	return bits.RotateLeft64(s1*5, 7) * 9, s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)
}

// Uint64 returns the next 64 uniformly distributed bits. It stays within
// the inlining budget: the simulator draws once per object pixel per tick.
func (r *Rand) Uint64() (out uint64) {
	out, r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// simple modulo with rejection keeps the stream easy to reason about.
	bound := uint64(n)
	threshold := (-bound) % bound // 2^64 mod n
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// The quotient is rounded by float64(), as is every product in this
// package that feeds an addition, so no target fuses it into a caller's
// multiply-add: the draws have the same bits on every architecture.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// IntRange returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Threshold returns Bool's probability in integer form: the number of
// Float64's 2^53 equally likely values k/2^53 that lie below p, which is
// ceil(p·2^53) clamped to [0, 2^53], and 0 for NaN. Because Float64 is
// exactly (Uint64()>>11)/2^53, the test Uint64()>>11 < Threshold(p) draws
// what Bool(p) draws, for every p, with one integer compare per draw.
func Threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0 // p <= 0 or NaN
}

// FirstHit runs up to n Bernoulli tests at threshold th (see Threshold),
// one per Uint64, and returns the index of the first that hits, having
// drawn index+1 values, or n, having drawn n values, when none does: the
// draws and answers of the same tests made one Uint64()>>11 < th at a
// time. The state stays in registers across the run, so a long run of
// unlikely tests, such as the pixels of one object, is one tight loop.
func (r *Rand) FirstHit(n int, th uint64) int {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	i := 0
	for ; i < n; i++ {
		var out uint64
		if out, s0, s1, s2, s3 = next(s0, s1, s2, s3); out>>11 < th {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return i
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform (polar form avoided for stream stability — trig form consumes a
// fixed two uniforms per pair).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	// Avoid log(0) by shifting u1 into (0, 1].
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.gauss = mag * math.Sin(2*math.Pi*u2)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1). Scale by
// 1/lambda for other rates; used for Poisson-process inter-arrival times in
// the sensor noise model.
func (r *Rand) ExpFloat64() float64 {
	// Shift into (0, 1] so the log is finite.
	return -math.Log(1 - r.Float64())
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// multiplication method for small means and a normal approximation above 30,
// which is ample for the per-patch event counts the simulator draws.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + float64(math.Sqrt(mean)*r.NormFloat64())
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Fork returns a new generator deterministically derived from this one's
// stream, so independent subsystems (noise, trajectories, textures) can
// consume randomness without perturbing each other's sequences.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64())
}
