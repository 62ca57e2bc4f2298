// Package randjoin implements the naive baseline used by the ablation
// benches: a newcomer performs a random walk down the tree and attaches at
// the first node with a free degree slot. It bounds how much of VDM's
// advantage comes from any informed placement at all.
package randjoin

import (
	"vdm/internal/overlay"
	"vdm/internal/rng"
)

// descendProb is the probability of walking into a child instead of
// attaching at a node with free capacity.
const descendProb = 0.5

type joinState struct {
	token     int
	target    overlay.NodeID
	awaitConn bool
	steps     int
	attempts  int
	reconnect bool
}

// Node is one random-join peer.
type Node struct {
	*overlay.Peer
	rnd   *rng.Stream
	join  *joinState
	token int
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a random-join node.
func New(net overlay.Bus, pc overlay.PeerConfig, rnd *rng.Stream) *Node {
	n := &Node{Peer: overlay.NewPeer(net, pc), rnd: rnd}
	n.Peer.SetHooks(n)
	return n
}

// Base returns the shared peer state.
func (n *Node) Base() *overlay.Peer { return n.Peer }

// StartJoin begins the random walk at the source.
func (n *Node) StartJoin() {
	if n.IsSource() || !n.Alive() {
		return
	}
	n.MarkJoinStart()
	n.begin(false, 0)
}

// OnOrphaned rejoins with a fresh random walk from the source.
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) { n.begin(true, 0) }

func (n *Node) begin(reconnect bool, attempts int) {
	js := &joinState{reconnect: reconnect, attempts: attempts}
	n.join = js
	n.sendInfo(js, n.Source())
}

func (n *Node) sendInfo(js *joinState, target overlay.NodeID) {
	js.target = target
	js.awaitConn = false
	js.steps++
	n.token++
	js.token = n.token
	n.Net().Send(n.ID(), target, overlay.InfoRequest{Token: js.token})
	tok := js.token
	n.Net().After(n.InfoTimeoutS, func() {
		if n.join == js && !js.awaitConn && js.token == tok {
			n.restart(js)
		}
	})
}

// HandleProtocol advances the walk.
func (n *Node) HandleProtocol(from overlay.NodeID, m overlay.Message) {
	js := n.join
	if js == nil {
		return
	}
	switch msg := m.(type) {
	case overlay.InfoResponse:
		if js.awaitConn || js.token != msg.Token || js.target != from {
			return
		}
		var kids []overlay.NodeID
		for _, ci := range msg.Children {
			if ci.ID != n.ID() {
				kids = append(kids, ci.ID)
			}
		}
		descend := len(kids) > 0 && (msg.Free == 0 || n.rnd.Bool(descendProb)) && js.steps < 64
		if descend {
			n.sendInfo(js, kids[n.rnd.Intn(len(kids))])
			return
		}
		js.awaitConn = true
		n.token++
		js.token = n.token
		n.Net().Send(n.ID(), from, overlay.ConnRequest{Token: js.token, Kind: overlay.ConnChild, Dist: 0})
		tok := js.token
		n.Net().After(overlay.ConnTimeoutS, func() {
			if n.join == js && js.awaitConn && js.token == tok {
				n.restart(js)
			}
		})
	case overlay.ConnResponse:
		if !js.awaitConn || js.token != msg.Token || js.target != from {
			return
		}
		if msg.Accepted {
			n.ApplyConnect(from, 0, msg.RootPath)
			n.join = nil
			return
		}
		if len(msg.Children) > 0 {
			n.sendInfo(js, msg.Children[n.rnd.Intn(len(msg.Children))].ID)
			return
		}
		n.restart(js)
	}
}

func (n *Node) restart(js *joinState) {
	n.join = nil
	n.RestartJoin(js.attempts+1, func() bool { return n.join == nil }, func(a int) {
		n.begin(js.reconnect, a)
	})
}
