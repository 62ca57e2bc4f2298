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

// switchMargin is the relative improvement a refinement candidate must
// offer before the node switches parents, damping oscillation.
const switchMargin = 0.02

type purpose int

const (
	purposeJoin purpose = iota
	purposeReconnect
	purposeRefine
)

type stage int

const (
	stageInfo stage = iota
	stageProbe
	stageConn
)

type joinState struct {
	purpose  purpose
	stage    stage
	token    int
	target   overlay.NodeID
	sentAt   float64
	dTarget  float64
	children []overlay.ChildInfo
	dists    overlay.ProbeResult
	visited  map[overlay.NodeID]bool
	attempts int
}

// Node is one HMTP peer.
type Node struct {
	*overlay.Peer
	cfg         Config
	rnd         *rng.Stream
	join        *joinState
	token       int
	refineArmed bool
}

var _ overlay.Protocol = (*Node)(nil)

// New builds an HMTP node. rnd drives refinement timing and root-path
// sampling.
func New(net overlay.Bus, pc overlay.PeerConfig, cfg Config, rnd *rng.Stream) *Node {
	n := &Node{
		Peer: overlay.NewPeer(net, pc),
		cfg:  cfg.withDefaults(),
		rnd:  rnd,
	}
	n.Peer.SetHooks(n)
	return n
}

// Base returns the shared peer state.
func (n *Node) Base() *overlay.Peer { return n.Peer }

// Joining reports whether a join procedure is in flight.
func (n *Node) Joining() bool { return n.join != nil }

// StartJoin begins the join procedure at the source.
func (n *Node) StartJoin() {
	if n.IsSource() || !n.Alive() {
		return
	}
	n.MarkJoinStart()
	n.begin(purposeJoin, n.Source())
}

// HandleProtocol consumes join-procedure responses.
func (n *Node) HandleProtocol(from overlay.NodeID, m overlay.Message) {
	switch msg := m.(type) {
	case overlay.InfoResponse:
		n.onInfoResponse(from, msg)
	case overlay.ConnResponse:
		n.onConnResponse(from, msg)
	}
}

// OnOrphaned reconnects starting at the grandparent, as VDM does — the
// dissertation measures both protocols with the same recovery rule.
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) {
	if n.join != nil && n.join.purpose == purposeRefine {
		n.EndSwitch()
		n.join = nil
	}
	start := hint
	if start == overlay.None || start == leaver || start == n.ID() {
		start = n.Source()
	}
	n.begin(purposeReconnect, start)
}

func (n *Node) begin(p purpose, target overlay.NodeID) { n.beginWith(p, target, 0) }

func (n *Node) beginWith(p purpose, target overlay.NodeID, attempts int) {
	js := &joinState{
		purpose:  p,
		visited:  make(map[overlay.NodeID]bool),
		dists:    make(overlay.ProbeResult),
		attempts: attempts,
	}
	n.join = js
	n.sendInfo(js, target)
}

func (n *Node) sendInfo(js *joinState, target overlay.NodeID) {
	js.stage = stageInfo
	js.target = target
	js.visited[target] = true
	js.sentAt = n.Now()
	n.token++
	js.token = n.token
	n.Net().Send(n.ID(), target, overlay.InfoRequest{Token: js.token})

	tok := js.token
	n.Net().After(n.InfoTimeoutS, func() {
		if n.join == js && js.stage == stageInfo && js.token == tok {
			n.onTargetUnusable(js)
		}
	})
}

func (n *Node) onTargetUnusable(js *joinState) {
	switch {
	case js.purpose == purposeRefine:
		n.join = nil
	case js.purpose == purposeReconnect && js.target != n.Source():
		n.sendInfo(js, n.Source())
	default:
		n.restart(js)
	}
}

func (n *Node) onInfoResponse(from overlay.NodeID, m overlay.InfoResponse) {
	js := n.join
	if js == nil || js.stage != stageInfo || js.token != m.Token || js.target != from {
		return
	}
	if !m.Connected && from != n.Source() {
		n.onTargetUnusable(js)
		return
	}
	js.dTarget = n.Measure(from, (n.Now()-js.sentAt)*1000)
	js.dists[from] = js.dTarget

	js.children = js.children[:0]
	var ids []overlay.NodeID
	for _, ci := range m.Children {
		if ci.ID == n.ID() {
			continue
		}
		js.children = append(js.children, ci)
		ids = append(ids, ci.ID)
	}
	if len(ids) == 0 {
		n.connect(js, js.target)
		return
	}
	js.stage = stageProbe
	tok := js.token
	n.Prober().Launch(ids, overlay.ProbeTimeoutS, func(res overlay.ProbeResult) {
		if n.join == js && js.stage == stageProbe && js.token == tok {
			for id, d := range res {
				js.dists[id] = d
			}
			n.decide(js, res)
		}
	})
}

// decide implements HMTP's closeness rule: descend into the closest child
// when it is strictly closer than the queried node, otherwise attach here.
func (n *Node) decide(js *joinState, res overlay.ProbeResult) {
	best := overlay.None
	bd := 0.0
	for _, ci := range js.children {
		d, ok := res[ci.ID]
		if !ok || js.visited[ci.ID] {
			continue
		}
		if best == overlay.None || d < bd || (d == bd && ci.ID < best) {
			best, bd = ci.ID, d
		}
	}
	if best != overlay.None && bd < js.dTarget {
		n.sendInfo(js, best)
		return
	}
	n.connect(js, js.target)
}

func (n *Node) connect(js *joinState, to overlay.NodeID) {
	if js.purpose == purposeRefine {
		cur := n.ParentID()
		d, ok := js.dists[to]
		if to == cur || cur == overlay.None || !ok ||
			d >= n.ParentDist()*(1-switchMargin) {
			n.join = nil
			return
		}
		n.BeginSwitch()
	}
	js.stage = stageConn
	js.target = to
	n.token++
	js.token = n.token
	dist := js.dTarget
	if d, ok := js.dists[to]; ok {
		dist = d
	}
	n.Net().Send(n.ID(), to, overlay.ConnRequest{
		Token: js.token,
		Kind:  overlay.ConnChild,
		Dist:  dist,
	})

	tok := js.token
	n.Net().After(overlay.ConnTimeoutS, func() {
		if n.join == js && js.stage == stageConn && js.token == tok {
			if js.purpose == purposeRefine {
				n.EndSwitch()
				n.join = nil
				return
			}
			n.restart(js)
		}
	})
}

func (n *Node) onConnResponse(from overlay.NodeID, m overlay.ConnResponse) {
	js := n.join
	if js == nil || js.stage != stageConn || js.token != m.Token || js.target != from {
		return
	}
	dist := js.dTarget
	if d, ok := js.dists[from]; ok {
		dist = d
	}
	if m.Accepted {
		if js.purpose == purposeRefine {
			n.ApplySwitch(from, dist, m.RootPath)
			n.EndSwitch()
			n.join = nil
			return
		}
		n.ApplyConnect(from, dist, m.RootPath)
		n.join = nil
		n.armRefine()
		return
	}
	if js.purpose == purposeRefine {
		n.EndSwitch()
		n.join = nil
		return
	}
	// Degree-saturated: flag this node and go for the next available
	// child, descending a level (figure 2.8 of the dissertation).
	var cands []overlay.NodeID
	for _, ci := range m.Children {
		if ci.ID != n.ID() && !js.visited[ci.ID] {
			cands = append(cands, ci.ID)
		}
	}
	if len(cands) == 0 {
		n.restart(js)
		return
	}
	js.stage = stageProbe
	n.token++
	js.token = n.token
	tok := js.token
	n.Prober().Launch(cands, overlay.ProbeTimeoutS, func(res overlay.ProbeResult) {
		if n.join != js || js.stage != stageProbe || js.token != tok {
			return
		}
		best := overlay.None
		bd := 0.0
		for _, id := range cands {
			d, ok := res[id]
			if !ok {
				continue
			}
			js.dists[id] = d
			if best == overlay.None || d < bd || (d == bd && id < best) {
				best, bd = id, d
			}
		}
		if best == overlay.None {
			n.restart(js)
			return
		}
		n.sendInfo(js, best)
	})
}

func (n *Node) restart(js *joinState) {
	n.join = nil
	if js.purpose == purposeRefine {
		return
	}
	n.RestartJoin(js.attempts+1, func() bool { return n.join == nil }, func(a int) {
		n.beginWith(js.purpose, n.Source(), a)
	})
}

// armRefine starts HMTP's mandatory periodic refinement after the first
// successful connection.
func (n *Node) armRefine() {
	if n.refineArmed {
		return
	}
	n.refineArmed = true
	n.scheduleRefine()
}

func (n *Node) scheduleRefine() {
	period := n.cfg.RefinePeriodS
	if n.rnd != nil {
		period *= n.rnd.Uniform(0.9, 1.1)
	}
	n.Net().After(period, func() {
		if !n.Alive() {
			return
		}
		if n.Connected() && n.join == nil && !n.Switching() {
			n.begin(purposeRefine, n.refineStart())
		}
		n.scheduleRefine()
	})
}

// refineStart picks a random node on the root path — HMTP re-runs the join
// from there to discover closer peers that arrived since.
func (n *Node) refineStart() overlay.NodeID {
	path := n.RootPath()
	if len(path) == 0 || n.rnd == nil {
		return n.Source()
	}
	return path[n.rnd.Intn(len(path))]
}
