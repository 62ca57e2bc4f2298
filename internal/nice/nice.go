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
// all-pairs member distances), cluster merge on underflow is omitted, and
// orphan recovery re-joins from the source. As the dissertation notes,
// NICE has no per-member degree bound — cluster size plays that role —
// so sessions running NICE size every node's capacity to the cluster
// bound.
package nice

import (
	"sort"

	"vdm/internal/overlay"
	"vdm/internal/rng"
)

// Config tunes a NICE node.
type Config struct {
	// K is NICE's cluster constant: clusters hold between K and 3K-1
	// members; zero selects 3.
	K int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 3
	}
	return c
}

// MaxCluster returns the upper cluster bound 3K−1 — the child capacity a
// session should give NICE nodes.
func (c Config) MaxCluster() int { return 3*c.withDefaults().K - 1 }

type stage int

const (
	stageInfo stage = iota
	stageProbe
	stageConn
)

type joinState struct {
	stage    stage
	token    int
	target   overlay.NodeID
	sentAt   float64
	children []overlay.ChildInfo
	dists    overlay.ProbeResult
	visited  map[overlay.NodeID]bool
	attempts int
	reassign bool // cluster-split move, not a fresh join
	tried    map[overlay.NodeID]bool
	// prev is the leader whose cluster the descent came from: when the
	// closest member turns out to be a plain (childless) member, the
	// bottom layer is prev's cluster and that is where the node joins.
	prev overlay.NodeID
}

// Node is one NICE peer.
type Node struct {
	*overlay.Peer
	cfg        Config
	rnd        *rng.Stream
	join       *joinState
	token      int
	maintArmed bool
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a NICE node. The peer's MaxDegree should be cfg.MaxCluster()
// (cluster size is NICE's only capacity notion).
func New(net overlay.Bus, pc overlay.PeerConfig, cfg Config, rnd *rng.Stream) *Node {
	n := &Node{Peer: overlay.NewPeer(net, pc), cfg: cfg.withDefaults(), rnd: rnd}
	n.Peer.SetHooks(n)
	return n
}

// Base returns the shared peer state.
func (n *Node) Base() *overlay.Peer { return n.Peer }

// StartJoin begins the layer descent at the source (the rendezvous
// point).
func (n *Node) StartJoin() {
	if n.IsSource() || !n.Alive() {
		return
	}
	n.MarkJoinStart()
	n.begin(0)
}

// OnOrphaned re-joins from the rendezvous point.
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) { n.begin(0) }

func (n *Node) begin(attempts int) {
	js := &joinState{
		visited:  make(map[overlay.NodeID]bool),
		dists:    make(overlay.ProbeResult),
		tried:    make(map[overlay.NodeID]bool),
		attempts: attempts,
		target:   overlay.None, // so the first sendInfo records prev=None
		prev:     overlay.None,
	}
	n.join = js
	n.sendInfo(js, n.Source())
}

func (n *Node) sendInfo(js *joinState, target overlay.NodeID) {
	js.stage = stageInfo
	js.prev = js.target
	js.target = target
	js.visited[target] = true
	js.sentAt = n.Now()
	n.token++
	js.token = n.token
	n.Net().Send(n.ID(), target, overlay.InfoRequest{Token: js.token})
	tok := js.token
	n.Net().After(n.InfoTimeoutS, func() {
		if n.join == js && js.stage == stageInfo && js.token == tok {
			n.restart(js)
		}
	})
}

// HandleProtocol consumes descent responses and cluster-split directives.
func (n *Node) HandleProtocol(from overlay.NodeID, m overlay.Message) {
	switch msg := m.(type) {
	case overlay.InfoResponse:
		n.onInfoResponse(from, msg)
	case overlay.ConnResponse:
		n.onConnResponse(from, msg)
	case overlay.Reassign:
		n.onReassign(from, msg)
	}
}

func (n *Node) onInfoResponse(from overlay.NodeID, m overlay.InfoResponse) {
	js := n.join
	if js == nil || js.stage != stageInfo || js.token != m.Token || js.target != from {
		return
	}
	if !m.Connected && from != n.Source() {
		n.restart(js)
		return
	}
	js.dists[from] = n.Measure(from, (n.Now()-js.sentAt)*1000)

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
		// The closest member is a plain member: the bottom layer is the
		// cluster we came from — join its leader. (At the very start
		// prev is None and the source itself is the bottom cluster.)
		to := js.prev
		if to == overlay.None {
			to = js.target
		}
		n.connect(js, to)
		return
	}
	js.stage = stageProbe
	tok := js.token
	n.Prober().Launch(ids, overlay.ProbeTimeoutS, func(res overlay.ProbeResult) {
		if n.join == js && js.stage == stageProbe && js.token == tok {
			for id, d := range res {
				js.dists[id] = d
			}
			n.descend(js, res)
		}
	})
}

// descend implements NICE's layer walk: move toward the closest member of
// the current cluster as long as that member leads a cluster of its own;
// otherwise this is the bottom layer — join here.
func (n *Node) descend(js *joinState, res overlay.ProbeResult) {
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
	if best == overlay.None {
		n.connect(js, js.target)
		return
	}
	// Does the closest member lead a lower-layer cluster? Ask it: the
	// descent continues through leaders and stops at a leaf cluster.
	n.sendInfo(js, best)
}

func (n *Node) connect(js *joinState, to overlay.NodeID) {
	if js.tried[to] {
		// The bottom leader already refused us: attach to the member we
		// reached instead, seeding a lower layer the maintenance pass
		// will tidy up; with both refused, start over.
		if to != js.target && !js.tried[js.target] {
			to = js.target
		} else {
			n.restart(js)
			return
		}
	}
	js.tried[to] = true
	js.stage = stageConn
	js.target = to
	n.token++
	js.token = n.token
	dist := js.dists[to]
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
	if js == nil || js.stage != stageConn || js.token != m.Token || js.target != from {
		return
	}
	if m.Accepted {
		if js.reassign {
			n.ApplySwitch(from, js.dists[from], m.RootPath)
			n.EndSwitch()
			n.join = nil
			return
		}
		n.ApplyConnect(from, js.dists[from], m.RootPath)
		n.join = nil
		n.armMaintenance()
		return
	}
	if js.reassign {
		// The promoted leader refused (e.g. it vanished or is itself
		// moving): stay put; the split retries on the next heartbeat.
		n.EndSwitch()
		n.join = nil
		return
	}
	// Cluster full at the acceptor (split in progress): step down into
	// its children.
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
		for id, d := range res {
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
	n.RestartJoin(js.attempts+1, func() bool { return n.join == nil }, n.begin)
}

// armMaintenance starts the heartbeat-style periodic cluster-size check
// once, after the first successful connection.
func (n *Node) armMaintenance() {
	if n.maintArmed {
		return
	}
	n.maintArmed = true
	n.scheduleMaintenance()
}

func (n *Node) scheduleMaintenance() {
	period := 10.0
	if n.rnd != nil {
		period *= n.rnd.Uniform(0.8, 1.2)
	}
	n.Net().After(period, func() {
		if !n.Alive() {
			return
		}
		if n.Connected() && n.join == nil {
			n.CheckSplit()
			n.CheckMerge()
		}
		n.scheduleMaintenance()
	})
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
	if n.IsSource() || len(kids) == 0 || len(kids) >= n.cfg.K {
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
	if len(kids) < n.cfg.MaxCluster() || n.Switching() {
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
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].d != ms[j].d {
			return ms[i].d < ms[j].d
		}
		return ms[i].id < ms[j].id
	})
	half := len(ms) / 2
	stay, move := ms[:half], ms[half:]
	if len(move) < 2 {
		return
	}
	_ = stay
	// The moved member closest to the old leader becomes the new
	// leader; the rest of the moved set is told to re-attach under it.
	leader := move[0].id
	for _, m := range move[1:] {
		n.Net().Send(n.ID(), m.id, overlay.Reassign{To: leader})
	}
}

// onReassign moves this node under the directed new parent (a cluster
// split at the old parent). The move is a regular connection request, so
// loop and capacity checks still apply; on rejection the node re-joins
// from the source.
func (n *Node) onReassign(from overlay.NodeID, m overlay.Reassign) {
	if from != n.ParentID() || m.To == n.ID() || n.join != nil {
		return
	}
	js := &joinState{
		visited:  map[overlay.NodeID]bool{m.To: true},
		dists:    make(overlay.ProbeResult),
		tried:    make(map[overlay.NodeID]bool),
		reassign: true,
	}
	n.join = js
	// Measure the new leader, then connect; ApplyConnect detaches from
	// the old parent implicitly only on switches, so detach explicitly
	// after acceptance — handled by using ApplySwitch semantics below.
	n.token++
	js.token = n.token
	js.stage = stageProbe
	tok := js.token
	n.Prober().Launch([]overlay.NodeID{m.To}, overlay.ProbeTimeoutS, func(res overlay.ProbeResult) {
		if n.join != js || js.token != tok {
			return
		}
		d, ok := res[m.To]
		if !ok {
			n.join = nil // new leader vanished; stay put
			return
		}
		js.dists[m.To] = d
		n.BeginSwitch()
		js.stage = stageConn
		js.target = m.To
		n.token++
		js.token = n.token
		n.Net().Send(n.ID(), m.To, overlay.ConnRequest{Token: js.token, Kind: overlay.ConnChild, Dist: d})
		tok2 := js.token
		n.Net().After(overlay.ConnTimeoutS, func() {
			if n.join == js && js.stage == stageConn && js.token == tok2 {
				n.EndSwitch()
				n.join = nil
			}
		})
	})
}
