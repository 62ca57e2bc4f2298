// Package nice implements a faithful-lite NICE baseline (Banerjee,
// Bhattacharjee, Kommareddy — "Scalable application layer multicast",
// SIGCOMM 2002), as the dissertation describes it in §2.4.9: members are
// arranged hierarchically in size-bounded clusters; topologically close
// members form a cluster; cluster leaders form the next layer up; a
// newcomer descends from the source through the layer hierarchy toward
// the closest cluster.
//
// Simplifications relative to full NICE, kept deliberately and
// documented: the source is the permanent top leader (NICE's rendezvous
// point), leader election inside a split picks the member closest to the
// old leader (full NICE approximates the graph-theoretic center with
// all-pairs member distances), an undersized cluster merges into its
// leader's parent cluster rather than a sibling, and orphan recovery
// re-joins from the source. As the dissertation notes, NICE has no
// per-member degree bound — cluster size plays that role — so sessions
// running NICE size every node's capacity to the cluster bound.
package nice

import (
	"cmp"
	"slices"

	"vdm/internal/overlay"
	"vdm/internal/rng"
)

// clusterK is NICE's cluster constant: clusters hold between K and 3K−1
// members.
const clusterK = 3

// MaxCluster is the upper cluster bound 3K−1 — the child capacity a
// session gives NICE nodes.
const MaxCluster = 3*clusterK - 1

// Node is one NICE peer: the shared descent through the layer hierarchy,
// plus cluster split, merge and reassignment.
type Node struct {
	overlay.Descent
	// k is the node's cluster constant (clusterK; tests shrink it).
	k int
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a NICE node. The peer's MaxDegree should be MaxCluster
// (cluster size is NICE's only capacity notion).
func New(net overlay.Bus, pc overlay.PeerConfig, rnd *rng.Stream) *Node {
	n := &Node{k: clusterK}
	n.Init(overlay.NewPeer(net, pc), n, rnd)
	return n
}

func (n *Node) maxCluster() int { return 3*n.k - 1 }

// HandleProtocol consumes descent responses and cluster-split directives.
func (n *Node) HandleProtocol(from overlay.NodeID, m overlay.Message) {
	if r, ok := m.(overlay.Reassign); ok {
		n.onReassign(from, r)
		return
	}
	n.Descent.HandleProtocol(from, m)
}

// Decide implements NICE's layer walk: move toward the closest member of
// the current cluster as long as that member leads a cluster of its own.
// When the queried member has no members of its own it is a plain member,
// and the bottom layer is the cluster the walk came from: join its leader
// (at the very start there is none, and the source itself is the bottom
// cluster).
func (n *Node) Decide(kids []overlay.ChildInfo, res overlay.ProbeResult) {
	if len(kids) == 0 {
		to := n.Prev()
		if to == overlay.None {
			to = n.Target()
		}
		n.attach(to)
		return
	}
	if best, _ := n.Closest(kids, res); best != overlay.None {
		n.Info(best)
		return
	}
	n.attach(n.Target())
}

// attach asks to to adopt the node. When the bottom leader already
// refused, it attaches to the member the walk reached instead, seeding a
// lower layer the maintenance pass will tidy up; with both refused, it
// starts over.
func (n *Node) attach(to overlay.NodeID) {
	if n.Tried(to) {
		if to == n.Target() || n.Tried(n.Target()) {
			n.Fail()
			return
		}
		to = n.Target()
	}
	n.Conn(to)
}

// Joined attaches and starts the heartbeat-style periodic cluster-size
// check.
func (n *Node) Joined(from overlay.NodeID, m overlay.ConnResponse) {
	dist, _ := n.Dist(from)
	n.ApplyConnect(from, dist, m.RootPath)
	n.Tick(10, 0.2, n.maintain)
}

func (n *Node) maintain() {
	n.CheckSplit()
	n.CheckMerge()
}

// CheckMerge dissolves this node's cluster when it has shrunk below K
// members (NICE's lower bound): the leader hands its remaining members to
// its own parent's cluster and becomes a plain member again. The source
// (top leader) never dissolves. The merge is best-effort: a member whose
// move is refused (parent cluster full) stays put and the next heartbeat
// retries — full NICE would merge with a sibling cluster instead, which
// the -lite version omits.
func (n *Node) CheckMerge() {
	kids := n.ChildIDs()
	if n.IsSource() || len(kids) == 0 || len(kids) >= n.k {
		return
	}
	p := n.ParentID()
	if p == overlay.None || n.Switching() {
		return
	}
	for _, c := range kids {
		n.Net().Send(n.ID(), c, overlay.Reassign{To: p})
	}
}

// CheckSplit splits this node's cluster when it exceeds 3K−1 members:
// the farthest half of the members moves under a newly promoted leader
// (the moved member closest to the old leader), forming a lower layer.
// The session runner invokes it periodically on connected nodes, standing
// in for NICE's heartbeat-driven maintenance.
func (n *Node) CheckSplit() {
	kids := n.ChildIDs()
	if len(kids) < n.maxCluster() || n.Switching() {
		return
	}
	// Order members by stored distance; the nearer half stays.
	type member struct {
		id overlay.NodeID
		d  float64
	}
	ms := make([]member, 0, len(kids))
	for _, c := range kids {
		d, _ := n.ChildDist(c)
		ms = append(ms, member{id: c, d: d})
	}
	slices.SortFunc(ms, func(a, b member) int {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id))
	})
	move := ms[len(ms)/2:]
	if len(move) < 2 {
		return
	}
	// The moved member closest to the old leader becomes the new
	// leader; the rest of the moved set is told to re-attach under it.
	leader := move[0].id
	for _, m := range move[1:] {
		n.Net().Send(n.ID(), m.id, overlay.Reassign{To: leader})
	}
}

// onReassign moves this node under the directed new parent (a cluster
// split at the old parent) as a switch walk: loop and capacity checks
// still apply, and a refusal leaves the node where it is until the split
// retries on the next heartbeat.
func (n *Node) onReassign(from overlay.NodeID, m overlay.Reassign) {
	if from != n.ParentID() || m.To == n.ID() || n.Joining() {
		return
	}
	n.SwitchTo(m.To)
}
