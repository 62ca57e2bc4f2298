package underlay

import (
	"math"
	"sort"
	"sync"

	"vdm/internal/geo"
	"vdm/internal/rng"
	"vdm/internal/topology"
)

// GeoUnderlay exposes a synthetic-PlanetLab RTT matrix as an Underlay.
// Hosts map 1:1 onto a chosen subset of sites. RTT measurements and
// message deliveries carry lognormal jitter; there is no router model,
// so PathLinks returns nil and the stress metric is unavailable (the
// chapter-5 experiments use resource usage instead, exactly as the paper
// does on PlanetLab). Jitter is drawn as a pure function of (edge, draw
// index) — see KeyedJitter.
type GeoUnderlay struct {
	m     *geo.Model
	sites []int // host -> site id

	keyedSeed int64
	rttMu     sync.Mutex
	rttDraws  rng.EdgeCounters
}

var _ Underlay = (*GeoUnderlay)(nil)
var _ KeyedJitter = (*GeoUnderlay)(nil)

// NewGeoKeyed builds an underlay over the given sites of model m, with
// jitter keyed under seed (see KeyedJitter).
func NewGeoKeyed(m *geo.Model, sites []int, seed int64) *GeoUnderlay {
	return &GeoUnderlay{m: m, sites: sites, keyedSeed: seed}
}

// Site returns the site backing host h.
func (u *GeoUnderlay) Site(h int) geo.Site { return u.m.Sites[u.sites[h]] }

// BaseRTT returns the jitter-free RTT between hosts in ms.
func (u *GeoUnderlay) BaseRTT(a, b int) float64 {
	return u.m.BaseRTT(u.sites[a], u.sites[b])
}

// RTT returns one noisy RTT measurement in ms.
func (u *GeoUnderlay) RTT(a, b int) float64 {
	base := u.BaseRTT(a, b)
	if u.m.JitterSigma <= 0 {
		return base
	}
	u.rttMu.Lock()
	n := u.rttDraws.Next(uint32(a), uint32(b))
	u.rttMu.Unlock()
	return base * rng.KeyedLogNormal(u.keyedSeed, uint64(uint32(a)), uint64(uint32(b)), keyedStreamRTT, n, 0, u.m.JitterSigma)
}

// OneWayDelayMS returns the jitter-free one-way delivery delay in ms; the
// simulated network passes its draw index to OneWayDelayMSKeyed instead.
func (u *GeoUnderlay) OneWayDelayMS(a, b int) float64 { return u.BaseRTT(a, b) / 2 }

// OneWayDelayMSKeyed returns the delivery delay for draw number `draw` on
// edge a→b, keyed under the underlay's seed. Lazy destination sites add
// keyed-exponential think time (which only increases the delay, so the
// Partition lookahead still holds).
func (u *GeoUnderlay) OneWayDelayMSKeyed(a, b int, draw uint64) float64 {
	d := u.BaseRTT(a, b) / 2
	if u.m.JitterSigma > 0 {
		d *= rng.KeyedLogNormal(u.keyedSeed, uint64(uint32(a)), uint64(uint32(b)), keyedStreamDelay, draw, 0, u.m.JitterSigma)
	}
	if u.m.Sites[u.sites[b]].Lazy {
		d += rng.KeyedExp(u.keyedSeed, uint64(uint32(a)), uint64(uint32(b)), keyedStreamLazy, draw, u.m.LazyExtraMS)
	}
	if d < MinDelayFloorMS {
		d = MinDelayFloorMS
	}
	return d
}

// Partition keeps each region's hosts on one shard. Hosts in site order
// (Generate numbers the sites region by region) fall into runs of one
// region, and a run goes to the shard its middle host falls in under an
// even split by host count. The lookahead is the exact minimum base
// one-way delay over host pairs on different shards, scaled by the
// clamped jitter minimum.
func (u *GeoUnderlay) Partition(shards int) ([]int, float64) {
	n := len(u.sites)
	order := make([]int, n)
	for h := range order {
		order[h] = h
	}
	sort.Slice(order, func(i, j int) bool { return u.sites[order[i]] < u.sites[order[j]] })
	owner := make([]int, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && u.Site(order[hi]).Region == u.Site(order[lo]).Region {
			hi++
		}
		for _, h := range order[lo:hi] {
			owner[h] = (lo + hi) * shards / (2 * n)
		}
		lo = hi
	}
	d := math.Inf(1)
	for a := range u.sites {
		for b := range u.sites {
			if owner[a] != owner[b] {
				d = min(d, u.BaseRTT(a, b)/2)
			}
		}
	}
	return owner, keyedLowerBound(d, u.m.JitterSigma)
}

// LossRate returns the per-chunk loss probability between hosts.
func (u *GeoUnderlay) LossRate(a, b int) float64 {
	return u.m.Loss(u.sites[a], u.sites[b])
}

// PathLinks returns nil: no router model.
func (u *GeoUnderlay) PathLinks(a, b int) []topology.LinkID { return nil }
