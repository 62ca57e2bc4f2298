package underlay

import (
	"math"
	"sync"
	"sync/atomic"

	"vdm/internal/rng"
	"vdm/internal/topology"
)

// hostAccessMS is the one-way delay of a host's access link to its router.
// Hosts on the same router still measure a small positive RTT.
const hostAccessMS = 0.5

// sptRow is one cached shortest-path tree plus its last-use stamp for
// budget eviction. The stamp is accessed through the atomic functions
// (not atomic.Uint64, which vet would flag when rows are appended) so
// read hits can refresh it under the read lock. Rows live in a dense
// slice indexed through sptSlot, so the cache adds two small arrays to
// the SPTs themselves instead of a map of boxed entries.
type sptRow struct {
	router topology.RouterID
	t      *topology.SPT
	last   uint64
}

// lossTable is an open-addressed (router pair → end-to-end loss) cache.
// Keys pack the ordered pair as lo<<32|hi with lo < hi, so key 0 cannot
// occur (equal routers never enter the cache) and doubles as the empty
// sentinel. 16 bytes per slot at ≤75% load replaces ~60 per map entry,
// and hitting the budget wipes the whole table — which one entry is
// resident never affects a value, only whether the next query recomputes.
type lossTable struct {
	keys []uint64
	vals []float64
	n    int
}

const lossTableMinSize = 64

func (t *lossTable) get(key uint64) (float64, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := rng.Mix64(key) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

func (t *lossTable) put(key uint64, val float64) {
	if t.n >= len(t.keys)-len(t.keys)/4 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := rng.Mix64(key) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			t.vals[i] = val
			return
		case 0:
			t.keys[i] = key
			t.vals[i] = val
			t.n++
			return
		}
	}
}

func (t *lossTable) grow() {
	size := lossTableMinSize
	if len(t.keys) > 0 {
		size = 2 * len(t.keys)
	}
	keys, vals := t.keys, t.vals
	t.keys = make([]uint64, size)
	t.vals = make([]float64, size)
	t.n = 0
	for i, k := range keys {
		if k != 0 {
			t.put(k, vals[i])
		}
	}
}

func (t *lossTable) reset() {
	t.keys, t.vals, t.n = nil, nil, 0
}

// RouterUnderlay routes host-to-host traffic over a router graph along
// shortest-delay paths. Shortest-path trees are computed lazily per
// attachment router and cached; WithCacheBudget bounds both caches so a
// very large topology cannot hold every tree and path-loss entry at once.
//
// The deterministic query methods (BaseRTT, LossRate, PathLinks, and the
// accessors) are safe for concurrent use: the lazy SPT and path-loss
// caches are guarded so one underlay can back many concurrent sessions
// without duplicating Dijkstra work. So are the jittered ones: jitter
// is keyed (WithKeyedJitter), which is what the sharded engine requires.
type RouterUnderlay struct {
	g      *topology.Graph
	attach []topology.RouterID // host -> router

	// mu guards the two lazy caches below. Writes (cache misses) take the
	// full lock and re-check, so each SPT is computed exactly once.
	mu sync.RWMutex
	// sptSlot maps router → resident row index + 1 (0 = not cached);
	// sptRows holds the resident trees densely.
	sptSlot []int32
	sptRows []sptRow
	// pathLoss caches end-to-end loss per ordered (router,router) pair.
	pathLoss lossTable

	// Cache budgets: 0 means unlimited. Eviction only changes what is
	// cached, never a value — evicted entries recompute deterministically.
	sptBudget      int
	pathLossBudget int
	sptClock       atomic.Uint64

	// Jitter (see KeyedJitter): application-level pings and deliveries
	// observe queueing and processing variation on top of propagation
	// delay, drawn as pure functions of (seed, edge, draw index). RTT
	// measurements key on a per-pair counter — each pair is only ever
	// probed from one peer's event loop at a time, but the table itself
	// needs a lock under concurrent shards.
	jitterSigma float64
	keyedSeed   int64
	rttMu       sync.Mutex
	rttDraws    rng.CounterTable
}

// WithKeyedJitter makes RTT measurements and deliveries (not base
// values) vary lognormally around the propagation delay, modeling the
// queueing and cross-traffic variation real probes see; sigma ≤ 0 leaves
// the underlay jitter-free. Draw values depend only on each sender's own
// send count per edge, so serial and sharded executions observe
// identical delays.
func (u *RouterUnderlay) WithKeyedJitter(seed int64, sigma float64) *RouterUnderlay {
	u.keyedSeed = seed
	u.jitterSigma = sigma
	return u
}

// WithCacheBudget bounds the lazy caches: at most spts shortest-path
// trees and pathLoss loss entries stay resident, with least-recently-used
// trees evicted first. Zero leaves a cache unlimited.
func (u *RouterUnderlay) WithCacheBudget(spts, pathLoss int) *RouterUnderlay {
	u.sptBudget = spts
	u.pathLossBudget = pathLoss
	return u
}

// CacheStats reports the resident entry counts of the SPT and path-loss
// caches.
func (u *RouterUnderlay) CacheStats() (spts, pathLoss int) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return len(u.sptRows), u.pathLoss.n
}

var _ Underlay = (*RouterUnderlay)(nil)
var _ KeyedJitter = (*RouterUnderlay)(nil)

// NewRouter attaches hosts to the given routers of graph g.
func NewRouter(g *topology.Graph, attach []topology.RouterID) *RouterUnderlay {
	return &RouterUnderlay{
		g:       g,
		attach:  attach,
		sptSlot: make([]int32, g.NumRouters()),
	}
}

// NumHosts reports the number of attached hosts.
func (u *RouterUnderlay) NumHosts() int { return len(u.attach) }

// NumLinks reports the number of physical links in the router graph.
func (u *RouterUnderlay) NumLinks() int { return u.g.NumLinks() }

// AttachmentRouter returns the router host h attaches to.
func (u *RouterUnderlay) AttachmentRouter(h int) topology.RouterID { return u.attach[h] }

func (u *RouterUnderlay) spt(r topology.RouterID) *topology.SPT {
	u.mu.RLock()
	if s := u.sptSlot[r]; s > 0 {
		row := &u.sptRows[s-1]
		atomic.StoreUint64(&row.last, u.sptClock.Add(1))
		t := row.t
		u.mu.RUnlock()
		return t
	}
	u.mu.RUnlock()
	u.mu.Lock()
	defer u.mu.Unlock()
	if s := u.sptSlot[r]; s > 0 {
		row := &u.sptRows[s-1]
		atomic.StoreUint64(&row.last, u.sptClock.Add(1))
		return row.t // another goroutine computed it while we waited
	}
	if u.sptBudget > 0 {
		for len(u.sptRows) >= u.sptBudget {
			victim := 0
			oldest := uint64(math.MaxUint64)
			for i := range u.sptRows {
				if last := atomic.LoadUint64(&u.sptRows[i].last); last < oldest {
					oldest, victim = last, i
				}
			}
			// Swap-remove: the tail row moves into the victim's slot.
			tail := len(u.sptRows) - 1
			u.sptSlot[u.sptRows[victim].router] = 0
			if victim != tail {
				u.sptRows[victim] = u.sptRows[tail]
				u.sptSlot[u.sptRows[victim].router] = int32(victim + 1)
			}
			u.sptRows[tail].t = nil
			u.sptRows = u.sptRows[:tail]
		}
	}
	u.sptRows = append(u.sptRows, sptRow{router: r, t: u.g.ShortestPaths(r), last: u.sptClock.Add(1)})
	u.sptSlot[r] = int32(len(u.sptRows))
	return u.sptRows[len(u.sptRows)-1].t
}

// Precompute eagerly fills the SPT cache for every attachment router (up
// to the configured budget), so subsequent concurrent queries rarely take
// the write lock.
func (u *RouterUnderlay) Precompute() {
	seen := make(map[topology.RouterID]bool, len(u.attach))
	for _, r := range u.attach {
		if !seen[r] {
			seen[r] = true
			u.spt(r)
		}
	}
}

// oneWay returns the one-way host-to-host delay in ms.
func (u *RouterUnderlay) oneWay(a, b int) float64 {
	if a == b {
		return 0
	}
	ra, rb := u.attach[a], u.attach[b]
	return u.spt(ra).DistMS[rb] + 2*hostAccessMS
}

// BaseRTT returns the deterministic round-trip time in ms.
func (u *RouterUnderlay) BaseRTT(a, b int) float64 { return 2 * u.oneWay(a, b) }

// pairKey packs an ordered host pair for the RTT draw counters.
func pairKey(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// RTT returns one round-trip-time measurement, with lognormal jitter when
// configured.
func (u *RouterUnderlay) RTT(a, b int) float64 {
	base := u.BaseRTT(a, b)
	if u.jitterSigma <= 0 {
		return base
	}
	u.rttMu.Lock()
	n := u.rttDraws.Next(pairKey(a, b))
	u.rttMu.Unlock()
	return base * rng.KeyedLogNormal(u.keyedSeed, uint64(uint32(a)), uint64(uint32(b)), keyedStreamRTT, n, 0, u.jitterSigma)
}

// OneWayDelayMS returns the jitter-free message delivery delay in ms;
// the simulated network passes its draw index to OneWayDelayMSKeyed
// instead (this is what makes probe measurements noisy: probes time
// actual message exchanges).
func (u *RouterUnderlay) OneWayDelayMS(a, b int) float64 { return u.oneWay(a, b) }

// OneWayDelayMSKeyed returns the delivery delay for draw number `draw` on
// edge a→b: jitter is a pure function of (seed, edge, draw), never below
// MinOneWayDelayMS for distinct hosts.
func (u *RouterUnderlay) OneWayDelayMSKeyed(a, b int, draw uint64) float64 {
	d := u.oneWay(a, b)
	if u.jitterSigma > 0 {
		d *= rng.KeyedLogNormal(u.keyedSeed, uint64(uint32(a)), uint64(uint32(b)), keyedStreamDelay, draw, 0, u.jitterSigma)
	}
	if d < MinDelayFloorMS {
		d = MinDelayFloorMS
	}
	return d
}

// MinOneWayDelayMS returns the conservative lower bound on keyed delivery
// delay between distinct hosts: the smallest possible base (two hosts on
// one router: both access links) scaled by the clamped jitter minimum.
func (u *RouterUnderlay) MinOneWayDelayMS() float64 {
	min := 2 * hostAccessMS
	if u.jitterSigma > 0 {
		min *= math.Exp(-rng.NormalClamp * u.jitterSigma)
	}
	if min < MinDelayFloorMS {
		min = MinDelayFloorMS
	}
	return min
}

// LossRate returns the end-to-end loss probability along the routed path:
// 1 − Π(1 − loss(link)).
func (u *RouterUnderlay) LossRate(a, b int) float64 {
	if a == b {
		return 0
	}
	ra, rb := u.attach[a], u.attach[b]
	if ra == rb {
		return 0
	}
	lo, hi := ra, rb
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(uint32(lo))<<32 | uint64(uint32(hi))
	u.mu.RLock()
	p, ok := u.pathLoss.get(key)
	u.mu.RUnlock()
	if ok {
		return p
	}
	survive := 1.0
	for _, lid := range u.spt(lo).PathLinks(hi) {
		survive *= 1 - u.g.Link(lid).LossRate
	}
	p = 1 - survive
	u.mu.Lock()
	if u.pathLossBudget > 0 && u.pathLoss.n >= u.pathLossBudget {
		// Wipe the table: which entries are resident never affects a
		// value, only whether the next query recomputes it.
		u.pathLoss.reset()
	}
	u.pathLoss.put(key, p)
	u.mu.Unlock()
	return p
}

// PathLinks returns the physical links on the routed path between hosts.
func (u *RouterUnderlay) PathLinks(a, b int) []topology.LinkID {
	if a == b {
		return nil
	}
	ra, rb := u.attach[a], u.attach[b]
	if ra == rb {
		return nil
	}
	return u.spt(ra).PathLinks(rb)
}
