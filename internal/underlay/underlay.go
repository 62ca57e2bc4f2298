// Package underlay abstracts the physical network beneath the overlay.
//
// Protocol code and metric collectors only ever see this interface; the
// two implementations are a router-graph underlay built from a transit-stub
// topology (chapter 3/4 simulations) and a measured-RTT-matrix underlay
// built from the synthetic PlanetLab (chapter 5 emulations).
package underlay

import (
	"math"

	"vdm/internal/rng"
	"vdm/internal/topology"
)

// Underlay models the network between overlay hosts. Hosts are identified
// by dense integer ids assigned by the session that built the underlay.
type Underlay interface {
	// RTT returns one round-trip-time measurement between hosts a and b
	// in milliseconds. Implementations may add per-call jitter; this is
	// what an application-level ping observes.
	RTT(a, b int) float64

	// BaseRTT returns the deterministic jitter-free RTT in milliseconds,
	// used by metric collectors.
	BaseRTT(a, b int) float64

	// OneWayDelayMS returns the delivery delay for a single message from
	// a to b in milliseconds (may include jitter).
	OneWayDelayMS(a, b int) float64

	// LossRate returns the end-to-end per-packet loss probability a→b.
	LossRate(a, b int) float64

	// PathLinks returns the physical links on the routed path between a
	// and b, or nil when the underlay has no router model (the stress
	// metric is then undefined).
	PathLinks(a, b int) []topology.LinkID
}

// MinDelayFloorMS is the smallest one-way delivery delay a keyed underlay
// reports. Conservative shard synchronization needs a strictly positive
// lower bound on cross-shard message latency; 10 µs is far below any
// modeled path, so the floor only exists to keep the bound positive.
const MinDelayFloorMS = 0.01

// KeyedJitter is the capability the sharded simulation engine requires of
// an underlay: delivery jitter drawn as a pure function of the edge and a
// caller-supplied draw index, rather than from a shared sequential stream,
// and a partition of the hosts across shards together with the smallest
// delay any message between two shards can take. Keyed draws make delay
// values independent of global event interleaving (each sender advances
// its own draw counters), and that smallest delay is the engine's
// conservative lookahead.
type KeyedJitter interface {
	// OneWayDelayMSKeyed is OneWayDelayMS with the jitter decided by the
	// draw index instead of stream order.
	OneWayDelayMSKeyed(a, b int, draw uint64) float64
	// Partition assigns every host to one of shards shards (owner[h] in
	// [0, shards)) and returns a hard lower bound (> 0) on
	// OneWayDelayMSKeyed over all draws and all host pairs with
	// owner[a] ≠ owner[b]; +Inf when no two hosts are apart.
	Partition(shards int) (owner []int, lookaheadMS float64)
}

// keyedLowerBound is the least OneWayDelayMSKeyed returns on a pair whose
// jitter-free delay is at least base: base times the smallest lognormal
// factor a clamped keyed draw can take, and never under the floor.
func keyedLowerBound(base, sigma float64) float64 {
	if sigma > 0 {
		base *= math.Exp(-rng.NormalClamp * sigma)
	}
	return max(base, MinDelayFloorMS)
}

// Stream ids for keyed draws, shared by the underlay implementations.
// Each (seed, edge, stream, draw) tuple is an independent value, so the
// ids only need to be distinct within one underlay's seed.
const (
	keyedStreamDelay uint32 = 1
	keyedStreamRTT   uint32 = 2
	keyedStreamLazy  uint32 = 3
)
