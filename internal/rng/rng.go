// Package rng provides seeded, splittable random streams.
//
// Every experiment derives all of its randomness from a single master seed.
// Sub-streams are derived by name, so adding a new consumer of randomness
// does not perturb the draws seen by existing consumers — a property the
// repeatability of the figure benches relies on.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic source of pseudo-random values.
//
// The underlying generator is materialized lazily on the first draw: a
// math/rand source is ~5 KB of state, and large simulations hand every
// peer a derived stream that most protocol configurations never draw
// from. An undrawn Stream costs two words instead of five kilobytes, and
// the draw sequence is identical to an eagerly-built source because
// seeding happens exactly once, keyed only by the seed.
type Stream struct {
	seed int64
	r    *rand.Rand
}

// New returns a stream seeded directly with seed. No generator state is
// allocated until the first draw.
func New(seed int64) *Stream {
	return &Stream{seed: seed}
}

// src returns the lazily-built generator.
func (s *Stream) src() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(s.seed))
	}
	return s.r
}

// Derive returns an independent sub-stream identified by name.
// The same (seed, name) pair always yields the same stream.
func Derive(seed int64, name string) *Stream {
	h := fnv.New64a()
	// Writes to fnv never fail.
	_, _ = h.Write([]byte(name))
	return New(seed ^ int64(h.Sum64()))
}

// Float64 returns a value uniformly distributed in [0, 1).
func (s *Stream) Float64() float64 { return s.src().Float64() }

// Intn returns an integer uniformly distributed in [0, n).
func (s *Stream) Intn(n int) int { return s.src().Intn(n) }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.src().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.src().Shuffle(n, swap) }

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (s *Stream) ExpFloat64() float64 { return s.src().ExpFloat64() }

// NormFloat64 returns a standard normally distributed value.
func (s *Stream) NormFloat64() float64 { return s.src().NormFloat64() }

// Uniform returns a value uniformly distributed in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + s.Float64()*(hi-lo)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + s.NormFloat64()*stddev
}

// LogNormal returns exp(Normal(mu, sigma)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.ExpFloat64() * mean
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// IntBetween returns an integer uniformly distributed in [lo, hi] inclusive.
func (s *Stream) IntBetween(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + s.Intn(hi-lo+1)
}

// PickN returns n distinct indices drawn uniformly from [0, total).
// It panics if n > total.
func (s *Stream) PickN(n, total int) []int {
	if n > total {
		panic("rng: PickN n > total")
	}
	perm := s.Perm(total)
	out := make([]int, n)
	copy(out, perm[:n])
	return out
}
