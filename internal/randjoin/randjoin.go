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

// maxSteps bounds the InfoRequests of one walk.
const maxSteps = 64

// Node is one random-join peer: the shared descent with random choices,
// no probing and no distance.
type Node struct {
	overlay.Descent
	rnd *rng.Stream
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a random-join node.
func New(net overlay.Bus, pc overlay.PeerConfig, rnd *rng.Stream) *Node {
	n := &Node{rnd: rnd}
	n.Init(overlay.NewPeer(net, pc), n, rnd)
	return n
}

// Reply walks into a random child, always when the target is full and
// otherwise with probability descendProb, or attaches at the target.
func (n *Node) Reply(from overlay.NodeID, m overlay.InfoResponse) {
	var kids []overlay.NodeID
	for _, ci := range m.Children {
		if ci.ID != n.ID() {
			kids = append(kids, ci.ID)
		}
	}
	if len(kids) > 0 && (m.Free == 0 || n.rnd.Bool(descendProb)) && n.Steps() < maxSteps {
		n.Info(kids[n.rnd.Intn(len(kids))])
		return
	}
	n.Conn(from)
}

// Refused walks on into a random child of the refusing node.
func (n *Node) Refused(m overlay.ConnResponse) {
	if len(m.Children) > 0 {
		n.Info(m.Children[n.rnd.Intn(len(m.Children))].ID)
		return
	}
	n.Fail()
}

// Joined attaches; the walk measures no distance.
func (n *Node) Joined(from overlay.NodeID, m overlay.ConnResponse) {
	n.ApplyConnect(from, 0, m.RootPath)
}
