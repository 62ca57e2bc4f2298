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
// attachment router and kept: there is one slot per router, so the graph
// bounds them. WithCacheBudget bounds the path-loss cache, which is keyed
// by router pair and could otherwise grow quadratically.
//
// The deterministic query methods (BaseRTT, LossRate, PathLinks, and the
// accessors) are safe for concurrent use: the lazy SPT and path-loss
// caches are guarded so one underlay can back many concurrent sessions
// without duplicating Dijkstra work. So are the jittered ones: jitter
// is keyed (WithKeyedJitter), which is what the sharded engine requires.
type RouterUnderlay struct {
	g      *topology.Graph
	attach []topology.RouterID // host -> router

	// spts holds the shortest-path tree rooted at each router, nil until
	// first use. A hit is one atomic load; a miss takes mu, re-checks,
	// computes and stores, so each tree is computed exactly once.
	spts []atomic.Pointer[topology.SPT]

	// lossless records that no link of g has loss, decided once in
	// NewRouter: LossRate then answers 0 without touching pathLoss.
	lossless bool

	// mu serializes SPT misses and guards pathLoss.
	mu sync.RWMutex
	// pathLoss caches end-to-end loss per ordered (router,router) pair.
	// pathLossBudget caps its entries, 0 meaning unlimited; hitting the
	// cap only changes what is cached, never a value.
	pathLoss       lossTable
	pathLossBudget int

	// Jitter (see KeyedJitter): application-level pings and deliveries
	// observe queueing and processing variation on top of propagation
	// delay, drawn as pure functions of (seed, edge, draw index). RTT
	// measurements key on a per-direction counter of the pair's slot — each
	// pair is only ever probed from one peer's event loop at a time, but the
	// table itself needs a lock under concurrent shards.
	jitterSigma float64
	keyedSeed   int64
	rttMu       sync.Mutex
	rttDraws    rng.EdgeCounters
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

// WithCacheBudget bounds the path-loss cache to pathLoss resident
// entries; zero leaves it unlimited.
func (u *RouterUnderlay) WithCacheBudget(pathLoss int) *RouterUnderlay {
	u.pathLossBudget = pathLoss
	return u
}

var _ Underlay = (*RouterUnderlay)(nil)
var _ KeyedJitter = (*RouterUnderlay)(nil)

// NewRouter attaches hosts to the given routers of graph g. Link loss
// rates must be assigned before the call.
func NewRouter(g *topology.Graph, attach []topology.RouterID) *RouterUnderlay {
	lossless := true
	for _, l := range g.Links() {
		if l.LossRate > 0 {
			lossless = false
			break
		}
	}
	return &RouterUnderlay{
		g:        g,
		attach:   attach,
		spts:     make([]atomic.Pointer[topology.SPT], g.NumRouters()),
		lossless: lossless,
	}
}

// AttachmentRouter returns the router host h attaches to.
func (u *RouterUnderlay) AttachmentRouter(h int) topology.RouterID { return u.attach[h] }

func (u *RouterUnderlay) spt(r topology.RouterID) *topology.SPT {
	if t := u.spts[r].Load(); t != nil {
		return t
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if t := u.spts[r].Load(); t != nil {
		return t // another goroutine computed it while we waited
	}
	t := u.g.ShortestPaths(r)
	u.spts[r].Store(t)
	return t
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

// RTT returns one round-trip-time measurement, with lognormal jitter when
// configured.
func (u *RouterUnderlay) RTT(a, b int) float64 {
	base := u.BaseRTT(a, b)
	if u.jitterSigma <= 0 {
		return base
	}
	u.rttMu.Lock()
	n := u.rttDraws.Next(uint32(a), uint32(b))
	u.rttMu.Unlock()
	return base * rng.KeyedLogNormal(u.keyedSeed, uint64(uint32(a)), uint64(uint32(b)), keyedStreamRTT, n, 0, u.jitterSigma)
}

// OneWayDelayMS returns the jitter-free message delivery delay in ms;
// the simulated network passes its draw index to OneWayDelayMSKeyed
// instead (this is what makes probe measurements noisy: probes time
// actual message exchanges).
func (u *RouterUnderlay) OneWayDelayMS(a, b int) float64 { return u.oneWay(a, b) }

// OneWayDelayMSKeyed returns the delivery delay for draw number `draw` on
// edge a→b: jitter is a pure function of (seed, edge, draw), clamped so
// a delay between shards never falls below Partition's lookahead.
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

// Partition splits the router ids into shards contiguous blocks of equal
// width and puts every host on its attachment router's block. The
// transit-stub generator allocates each transit domain's routers
// contiguously, so when shards divides the domain count every block is
// whole transit domains and hosts on different shards are at least a
// transit link apart. The lookahead is the smallest router distance
// between attachment routers of different blocks — one multi-source
// Dijkstra per block — plus both access links, scaled by the clamped
// jitter minimum. It bounds every cross-shard delivery whatever the id
// layout; the layout only decides how large it is.
func (u *RouterUnderlay) Partition(shards int) ([]int, float64) {
	n := u.g.NumRouters()
	owner := make([]int, len(u.attach))
	sources := make([][]topology.RouterID, shards)
	seen := make([]bool, n)
	for h, r := range u.attach {
		owner[h] = int(r) * shards / n
		if !seen[r] {
			seen[r] = true
			sources[owner[h]] = append(sources[owner[h]], r)
		}
	}
	d := math.Inf(1)
	for k, src := range sources {
		if len(src) == 0 {
			continue
		}
		dist := u.g.NearestDistMS(src)
		for j, dst := range sources {
			if j == k {
				continue
			}
			for _, r := range dst {
				d = min(d, dist[r])
			}
		}
	}
	return owner, keyedLowerBound(d+2*hostAccessMS, u.jitterSigma)
}

// LossRate returns the end-to-end loss probability along the routed path:
// 1 − Π(1 − loss(link)).
func (u *RouterUnderlay) LossRate(a, b int) float64 {
	if a == b || u.lossless {
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
