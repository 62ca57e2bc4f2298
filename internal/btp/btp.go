// Package btp implements the Banana Tree Protocol baseline (Helder &
// Jamin, "End-host multicast communication using switch-trees protocols"):
// a newcomer attaches directly at the root (descending only when a node is
// degree-saturated) and the tree is optimized afterwards by periodic
// sibling switches — a node moves under a sibling that is closer than its
// current parent. The mutual-switch loop hazard BTP is known for is
// defused by the shared peer base, which refuses connection requests while
// a node is itself mid-switch.
package btp

import (
	"vdm/internal/overlay"
	"vdm/internal/rng"
)

// switchPeriodS is the sibling-switch probe period.
const switchPeriodS = 60.0

// Node is one BTP peer: the shared descent, attaching first and asking
// only in its sibling switches.
type Node struct {
	overlay.Descent
	// switchPeriodS is the node's sibling-switch probe period (the
	// package constant; tests shorten or stretch it).
	switchPeriodS float64
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a BTP node.
func New(net overlay.Bus, pc overlay.PeerConfig, rnd *rng.Stream) *Node {
	n := &Node{switchPeriodS: switchPeriodS}
	n.Init(overlay.NewPeer(net, pc), n, rnd)
	return n
}

// Visit asks id to adopt the node straight away: a join starts at the
// root and only a saturated node sends it further down.
func (n *Node) Visit(id overlay.NodeID) { n.Conn(id) }

// Reply surveys the parent's children for a sibling switch, whatever the
// parent reports about its own connection.
func (n *Node) Reply(from overlay.NodeID, m overlay.InfoResponse) { n.Survey(from, m) }

// Decide switches under the closest sibling when it beats the parent
// distance the info exchange has just measured.
func (n *Node) Decide(kids []overlay.ChildInfo, res overlay.ProbeResult) {
	best, _ := n.Closest(kids, res)
	dParent, _ := n.Dist(n.Target())
	if !n.Improves(best, dParent) || !n.Connected() {
		n.Fail()
		return
	}
	n.Conn(best)
}

// Joined attaches and starts the periodic sibling switch. BTP attaches at
// the root without probing first, so there the connection exchange's
// round trip is the distance measurement.
func (n *Node) Joined(from overlay.NodeID, m overlay.ConnResponse) {
	dist, ok := n.Dist(from)
	if !ok {
		dist = n.Measure(from, n.ElapsedMS())
	}
	n.ApplyConnect(from, dist, m.RootPath)
	n.Tick(n.switchPeriodS, 0.1, func() { n.Refine(n.ParentID()) })
}
