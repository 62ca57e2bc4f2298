package rng

import (
	"hash/fnv"
	"math"
)

// Keyed (counter-based) draws.
//
// A Stream hands out values in call order, which makes any consumer shared
// between concurrently executing parties order-sensitive: the sharded
// simulation engine would observe different values depending on how shards
// interleave. The functions below instead compute each value as a pure
// function of (seed, edge a→b, stream id, draw index): as long as each
// party advances its own draw indices deterministically, the values it
// sees are independent of global execution order — which is what makes a
// sharded run byte-identical to a serial one. EdgeCounters keeps the draw
// indices: one slot per pair of endpoints, one count per direction.

// DeriveSeed returns the seed Derive(seed, name) would build its stream
// from, without constructing the stream. It lets stateless keyed draws
// share the "derivation by name never perturbs sibling consumers"
// property of named streams.
func DeriveSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

const golden = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer — a cheap, well-distributed 64-bit
// permutation. Exported for open-addressed tables elsewhere that need a
// hash consistent with the keyed-draw machinery.
func Mix64(x uint64) uint64 { return mix64(x) }

// mix64 is the splitmix64 finalizer — a cheap, well-distributed 64-bit
// permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyedU64 returns a uniform 64-bit value for draw n of stream `stream`
// on edge (a, b) under seed. Distinct tuples give independent values.
func KeyedU64(seed int64, a, b uint64, stream uint32, n uint64) uint64 {
	x := uint64(seed)
	x = mix64(x + golden + a)
	x = mix64(x + golden + b)
	x = mix64(x + golden + uint64(stream))
	x = mix64(x + golden + n)
	return x
}

// KeyedU01 returns a uniform float64 in [0, 1).
func KeyedU01(seed int64, a, b uint64, stream uint32, n uint64) float64 {
	return float64(KeyedU64(seed, a, b, stream, n)>>11) / (1 << 53)
}

// KeyedBool returns true with probability p.
func KeyedBool(seed int64, a, b uint64, stream uint32, n uint64, p float64) bool {
	return KeyedU01(seed, a, b, stream, n) < p
}

// KeyedNormal returns a standard-normal value via Box–Muller over two
// sub-draws of the keyed uniform.
func KeyedNormal(seed int64, a, b uint64, stream uint32, n uint64) float64 {
	x := KeyedU64(seed, a, b, stream, n)
	y := mix64(x + golden)
	u1 := (float64(x>>11) + 1) / (1 << 53) // (0, 1]: log stays finite
	u2 := float64(y>>11) / (1 << 53)       // [0, 1)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormalClamp bounds the tails of keyed normal draws. Conservative
// shard synchronization needs a hard lower bound on jittered delivery
// delays; clamping at ±8σ changes a given draw with probability ~1e-15
// while making exp(σ·z) ≥ exp(-8σ) a guarantee rather than a near-
// certainty.
const NormalClamp = 8.0

// KeyedLogNormal returns exp(mu + sigma·z) with z a keyed standard normal
// clamped to ±NormalClamp.
func KeyedLogNormal(seed int64, a, b uint64, stream uint32, n uint64, mu, sigma float64) float64 {
	z := KeyedNormal(seed, a, b, stream, n)
	if z > NormalClamp {
		z = NormalClamp
	} else if z < -NormalClamp {
		z = -NormalClamp
	}
	return math.Exp(mu + sigma*z)
}

// KeyedExp returns an exponentially distributed value with the given mean.
func KeyedExp(seed int64, a, b uint64, stream uint32, n uint64, mean float64) float64 {
	x := KeyedU64(seed, a, b, stream, n)
	u := (float64(x>>11) + 1) / (1 << 53) // (0, 1]
	return -mean * math.Log(u)
}
