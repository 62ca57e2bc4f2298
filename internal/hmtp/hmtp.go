// Package hmtp implements the Host Multicast Tree Protocol baseline the
// paper compares VDM against (Zhang, Jamin, Zhang — "Host multicast: a
// framework for delivering multicast to end users", INFOCOM 2002), as
// described in the dissertation: a newcomer iteratively descends toward
// the closest child until no child is closer than the currently queried
// node, attaches there, and afterwards relies on mandatory periodic
// refinement — each round re-runs the join from a random node on the root
// path and switches to the found parent when it is closer than the current
// one.
package hmtp

import (
	"vdm/internal/overlay"
	"vdm/internal/rng"
)

// Config tunes an HMTP node.
type Config struct {
	// RefinePeriodS is the period of the mandatory refinement process
	// (30 s in the paper's PlanetLab runs); zero selects 30 s.
	RefinePeriodS float64
}

func (c Config) withDefaults() Config {
	if c.RefinePeriodS <= 0 {
		c.RefinePeriodS = 30
	}
	return c
}

// Node is one HMTP peer: the shared descent under HMTP's closeness rule.
type Node struct {
	overlay.Descent
	cfg Config
	rnd *rng.Stream
}

var _ overlay.Protocol = (*Node)(nil)

// New builds an HMTP node. rnd drives refinement timing and root-path
// sampling.
func New(net overlay.Bus, pc overlay.PeerConfig, cfg Config, rnd *rng.Stream) *Node {
	n := &Node{cfg: cfg.withDefaults(), rnd: rnd}
	n.Init(overlay.NewPeer(net, pc), n, rnd)
	return n
}

// OnOrphaned reconnects starting at the grandparent, as VDM does — the
// dissertation measures both protocols with the same recovery rule.
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) { n.Reconnect(leaver, hint) }

// Decide implements HMTP's closeness rule: descend into the closest child
// when it is strictly closer than the queried node, otherwise attach here.
// A refinement attaches only where it beats the stored parent distance by
// the switch margin.
func (n *Node) Decide(kids []overlay.ChildInfo, res overlay.ProbeResult) {
	to := n.Target()
	dTarget, _ := n.Dist(to)
	if best, bd := n.Closest(kids, res); best != overlay.None && bd < dTarget {
		n.Info(best)
		return
	}
	cur := n.ParentID()
	if n.Refining() && (to == cur || cur == overlay.None || !n.Improves(to, n.ParentDist())) {
		n.Fail()
		return
	}
	n.Conn(to)
}

// Joined attaches and starts HMTP's mandatory periodic refinement.
func (n *Node) Joined(from overlay.NodeID, m overlay.ConnResponse) {
	dist, _ := n.Dist(from)
	n.ApplyConnect(from, dist, m.RootPath)
	n.Tick(n.cfg.RefinePeriodS, 0.1, n.refine)
}

// refine re-runs the join from a random node on the root path, to discover
// closer peers that arrived since.
func (n *Node) refine() {
	path := n.RootPath()
	if len(path) == 0 || n.rnd == nil {
		n.Refine(n.Source())
		return
	}
	n.Refine(path[n.rnd.Intn(len(path))])
}
