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

// Sibling-switch tuning: the probe period, and the relative improvement
// over the current parent distance a sibling must offer before the node
// switches under it.
const (
	switchPeriodS = 60.0
	switchMargin  = 0.02
)

type stage int

const (
	stageConn stage = iota
	stageProbe
	stageSwitchInfo
	stageSwitchProbe
	stageSwitchConn
)

type joinState struct {
	stage     stage
	token     int
	target    overlay.NodeID
	sentAt    float64
	dists     overlay.ProbeResult
	visited   map[overlay.NodeID]bool
	attempts  int
	reconnect bool
}

// Node is one BTP peer.
type Node struct {
	*overlay.Peer
	// switchPeriodS is the node's sibling-switch probe period (the
	// package constant; tests shorten or stretch it).
	switchPeriodS float64
	rnd           *rng.Stream
	join          *joinState
	token         int
	switchArmed   bool
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a BTP node.
func New(net overlay.Bus, pc overlay.PeerConfig, rnd *rng.Stream) *Node {
	n := &Node{
		Peer:          overlay.NewPeer(net, pc),
		switchPeriodS: switchPeriodS,
		rnd:           rnd,
	}
	n.Peer.SetHooks(n)
	return n
}

// Base returns the shared peer state.
func (n *Node) Base() *overlay.Peer { return n.Peer }

// StartJoin attaches at the root.
func (n *Node) StartJoin() {
	if n.IsSource() || !n.Alive() {
		return
	}
	n.MarkJoinStart()
	n.begin(false, 0)
}

func (n *Node) begin(reconnect bool, attempts int) {
	js := &joinState{
		dists:     make(overlay.ProbeResult),
		visited:   make(map[overlay.NodeID]bool),
		attempts:  attempts,
		reconnect: reconnect,
	}
	n.join = js
	n.sendConn(js, n.Source())
}

// HandleProtocol consumes connection and sibling-switch responses.
func (n *Node) HandleProtocol(from overlay.NodeID, m overlay.Message) {
	switch msg := m.(type) {
	case overlay.ConnResponse:
		n.onConnResponse(from, msg)
	case overlay.InfoResponse:
		n.onSwitchInfo(from, msg)
	}
}

// OnOrphaned rejoins at the root — BTP's recovery rule.
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) {
	if n.join != nil && (n.join.stage == stageSwitchInfo || n.join.stage == stageSwitchProbe || n.join.stage == stageSwitchConn) {
		n.EndSwitch()
		n.join = nil
	}
	n.begin(true, 0)
}

func (n *Node) sendConn(js *joinState, to overlay.NodeID) {
	js.stage = stageConn
	js.target = to
	js.visited[to] = true
	js.sentAt = n.Now()
	n.token++
	js.token = n.token
	dist := 0.0
	if d, ok := js.dists[to]; ok {
		dist = d
	}
	n.Net().Send(n.ID(), to, overlay.ConnRequest{Token: js.token, Kind: overlay.ConnChild, Dist: dist})

	tok := js.token
	n.Net().After(overlay.ConnTimeoutS, func() {
		if n.join == js && js.stage == stageConn && js.token == tok {
			n.restart(js)
		}
	})
}

func (n *Node) onConnResponse(from overlay.NodeID, m overlay.ConnResponse) {
	js := n.join
	if js == nil || js.token != m.Token || js.target != from {
		return
	}
	switch js.stage {
	case stageConn:
		if m.Accepted {
			dist, ok := js.dists[from]
			if !ok {
				// BTP attaches without probing first; the connection
				// exchange round-trip is the distance measurement.
				dist = n.Measure(from, (n.Now()-js.sentAt)*1000)
			}
			n.ApplyConnect(from, dist, m.RootPath)
			n.join = nil
			n.armSwitch()
			return
		}
		// Full: descend into the closest child.
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
			n.sendConn(js, best)
		})
	case stageSwitchConn:
		if m.Accepted {
			n.ApplySwitch(from, js.dists[from], m.RootPath)
		}
		n.EndSwitch()
		n.join = nil
	}
}

func (n *Node) restart(js *joinState) {
	n.join = nil
	n.RestartJoin(js.attempts+1, func() bool { return n.join == nil }, func(a int) {
		n.begin(js.reconnect, a)
	})
}

// armSwitch starts the periodic sibling-switch optimization.
func (n *Node) armSwitch() {
	if n.switchArmed {
		return
	}
	n.switchArmed = true
	n.scheduleSwitch()
}

func (n *Node) scheduleSwitch() {
	period := n.switchPeriodS
	if n.rnd != nil {
		period *= n.rnd.Uniform(0.9, 1.1)
	}
	n.Net().After(period, func() {
		if !n.Alive() {
			return
		}
		if n.Connected() && n.join == nil && !n.Switching() && n.ParentID() != overlay.None {
			js := &joinState{dists: make(overlay.ProbeResult), visited: make(map[overlay.NodeID]bool)}
			js.stage = stageSwitchInfo
			js.target = n.ParentID()
			js.sentAt = n.Now()
			n.token++
			js.token = n.token
			n.join = js
			n.Net().Send(n.ID(), js.target, overlay.InfoRequest{Token: js.token})
			tok := js.token
			n.Net().After(n.InfoTimeoutS, func() {
				if n.join == js && js.stage == stageSwitchInfo && js.token == tok {
					n.join = nil
				}
			})
		}
		n.scheduleSwitch()
	})
}

// onSwitchInfo probes the siblings reported by the parent and switches
// under the closest one when it beats the current parent distance.
func (n *Node) onSwitchInfo(from overlay.NodeID, m overlay.InfoResponse) {
	js := n.join
	if js == nil || js.stage != stageSwitchInfo || js.token != m.Token || js.target != from {
		return
	}
	// The info exchange with the parent refreshes the parent distance the
	// sibling comparison runs against.
	dParent := n.Measure(from, (n.Now()-js.sentAt)*1000)
	js.dists[from] = dParent
	var sibs []overlay.NodeID
	for _, ci := range m.Children {
		if ci.ID != n.ID() {
			sibs = append(sibs, ci.ID)
		}
	}
	if len(sibs) == 0 {
		n.join = nil
		return
	}
	js.stage = stageSwitchProbe
	n.token++
	js.token = n.token
	tok := js.token
	n.Prober().Launch(sibs, overlay.ProbeTimeoutS, func(res overlay.ProbeResult) {
		if n.join != js || js.stage != stageSwitchProbe || js.token != tok {
			return
		}
		best := overlay.None
		bd := 0.0
		for id, d := range res {
			js.dists[id] = d
			if best == overlay.None || d < bd || (d == bd && id < best) {
				best, bd = id, d
			}
		}
		if best == overlay.None || bd >= dParent*(1-switchMargin) || !n.Connected() {
			n.join = nil
			return
		}
		n.BeginSwitch()
		js.stage = stageSwitchConn
		js.target = best
		n.token++
		js.token = n.token
		n.Net().Send(n.ID(), best, overlay.ConnRequest{Token: js.token, Kind: overlay.ConnChild, Dist: bd})
		tok2 := js.token
		n.Net().After(overlay.ConnTimeoutS, func() {
			if n.join == js && js.stage == stageSwitchConn && js.token == tok2 {
				n.EndSwitch()
				n.join = nil
			}
		})
	})
}
