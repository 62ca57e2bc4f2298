package topology

import (
	"fmt"

	"vdm/internal/rng"
)

// TransitStubConfig parameterizes the GT-ITM-style transit-stub generator.
// The defaults (see DefaultTransitStub) approximate the 792-router topology
// the dissertation generated with GT-ITM.
type TransitStubConfig struct {
	TransitDomains  int // number of transit domains
	TransitPerDom   int // routers per transit domain
	StubsPerTransit int // stub domains hanging off each transit router
	StubSize        int // routers per stub domain

	// Edge densities (probability of an extra edge beyond the spanning
	// backbone inside a domain).
	TransitExtraEdgeProb float64
	StubExtraEdgeProb    float64
	InterTransitEdges    int // extra random edges between transit domains

	// Link delay ranges in milliseconds (one-way).
	TransitDelayMS [2]float64 // links inside and between transit domains
	StubDelayMS    [2]float64 // links inside stub domains
	AccessDelayMS  [2]float64 // stub-to-transit uplinks
}

// DefaultTransitStub returns the configuration used by the chapter-3
// experiments: 4 transit domains × 4 routers, 3 stubs per transit router,
// 16 routers per stub → 4*4*(1+3*16) = 784 routers, close to the paper's
// 792-router GT-ITM graph.
func DefaultTransitStub() TransitStubConfig {
	return TransitStubConfig{
		TransitDomains:       4,
		TransitPerDom:        4,
		StubsPerTransit:      3,
		StubSize:             16,
		TransitExtraEdgeProb: 0.6,
		StubExtraEdgeProb:    0.3,
		InterTransitEdges:    8,
		TransitDelayMS:       [2]float64{10, 40},
		StubDelayMS:          [2]float64{1, 5},
		AccessDelayMS:        [2]float64{2, 10},
	}
}

// ScaledTransitStub grows the default configuration until it holds at least
// minRouters routers, by adding stub routers first and then stub domains.
func ScaledTransitStub(minRouters int) TransitStubConfig {
	cfg := DefaultTransitStub()
	for cfg.routerCount() < minRouters {
		if cfg.StubSize < 48 {
			cfg.StubSize += 8
		} else {
			cfg.StubsPerTransit++
		}
	}
	return cfg
}

func (c TransitStubConfig) routerCount() int {
	return c.TransitDomains * c.TransitPerDom * (1 + c.StubsPerTransit*c.StubSize)
}

// TransitStub is a generated transit-stub topology: the router graph plus
// the classification of routers needed to attach end hosts to stubs.
type TransitStub struct {
	Graph      *Graph
	TransitIDs []RouterID // all transit routers
	StubIDs    []RouterID // all stub routers (host attachment candidates)
}

// GenerateTransitStub builds a random transit-stub graph. The result is
// always connected: each domain gets a random spanning backbone before
// probabilistic extra edges are added.
func GenerateTransitStub(cfg TransitStubConfig, rnd *rng.Stream) (*TransitStub, error) {
	if cfg.TransitDomains < 1 || cfg.TransitPerDom < 1 || cfg.StubSize < 1 || cfg.StubsPerTransit < 0 {
		return nil, fmt.Errorf("topology: invalid transit-stub config %+v", cfg)
	}
	n := cfg.routerCount()
	g := NewGraph(n)
	ts := &TransitStub{Graph: g}

	next := 0
	alloc := func(k int) []RouterID {
		ids := make([]RouterID, k)
		for i := range ids {
			ids[i] = RouterID(next)
			next++
		}
		return ids
	}
	delay := func(r [2]float64) float64 { return rnd.Uniform(r[0], r[1]) }

	// connectDomain wires ids into a random connected subgraph: a random
	// spanning tree plus extra edges with probability extraProb.
	connectDomain := func(ids []RouterID, dr [2]float64, extraProb float64) {
		perm := rnd.Perm(len(ids))
		for i := 1; i < len(perm); i++ {
			a := ids[perm[i]]
			b := ids[perm[rnd.Intn(i)]]
			if _, err := g.AddLink(a, b, delay(dr)); err != nil {
				panic(err) // spanning construction cannot collide
			}
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if !g.HasEdge(ids[i], ids[j]) && rnd.Bool(extraProb) {
					_, _ = g.AddLink(ids[i], ids[j], delay(dr))
				}
			}
		}
	}

	var domains [][]RouterID
	for d := 0; d < cfg.TransitDomains; d++ {
		transit := alloc(cfg.TransitPerDom)
		domains = append(domains, transit)
		ts.TransitIDs = append(ts.TransitIDs, transit...)
		connectDomain(transit, cfg.TransitDelayMS, cfg.TransitExtraEdgeProb)

		for _, tr := range transit {
			for s := 0; s < cfg.StubsPerTransit; s++ {
				stub := alloc(cfg.StubSize)
				ts.StubIDs = append(ts.StubIDs, stub...)
				connectDomain(stub, cfg.StubDelayMS, cfg.StubExtraEdgeProb)
				// Uplink: one stub router connects to its transit router.
				up := stub[rnd.Intn(len(stub))]
				if _, err := g.AddLink(up, tr, delay(cfg.AccessDelayMS)); err != nil {
					return nil, err
				}
			}
		}
	}

	// Backbone between transit domains: a ring plus extra random edges so
	// the backbone stays connected for any domain count.
	for d := 0; d < len(domains); d++ {
		a := domains[d][rnd.Intn(len(domains[d]))]
		nd := domains[(d+1)%len(domains)]
		b := nd[rnd.Intn(len(nd))]
		if len(domains) > 1 && !g.HasEdge(a, b) {
			_, _ = g.AddLink(a, b, delay(cfg.TransitDelayMS))
		}
	}
	for e := 0; e < cfg.InterTransitEdges && len(domains) > 1; e++ {
		d1 := rnd.Intn(len(domains))
		d2 := rnd.Intn(len(domains))
		if d1 == d2 {
			continue
		}
		a := domains[d1][rnd.Intn(len(domains[d1]))]
		b := domains[d2][rnd.Intn(len(domains[d2]))]
		if !g.HasEdge(a, b) {
			_, _ = g.AddLink(a, b, delay(cfg.TransitDelayMS))
		}
	}

	if !g.Connected() {
		return nil, fmt.Errorf("topology: generated graph is disconnected")
	}
	return ts, nil
}

// AssignLinkLoss draws an independent Bernoulli loss rate uniformly from
// [0, maxLoss] for every link — the chapter-4 error model.
func (ts *TransitStub) AssignLinkLoss(maxLoss float64, rnd *rng.Stream) {
	for _, l := range ts.Graph.Links() {
		ts.Graph.SetLinkLoss(l.ID, rnd.Uniform(0, maxLoss))
	}
}

// AttachHosts picks attachment routers for n end hosts, uniformly over
// stub routers. While the pool lasts, hosts land on distinct routers (the
// paper attaches its 200 hosts to distinct routers of the 792-router
// graph); beyond that, routers are shared.
func (ts *TransitStub) AttachHosts(n int, rnd *rng.Stream) []RouterID {
	out := make([]RouterID, n)
	perm := rnd.Perm(len(ts.StubIDs))
	for i := range out {
		if i < len(perm) {
			out[i] = ts.StubIDs[perm[i]]
		} else {
			out[i] = ts.StubIDs[rnd.Intn(len(ts.StubIDs))]
		}
	}
	return out
}
