package overlay

import (
	"vdm/internal/flow"
	"vdm/internal/vdist"
)

// TreeView is the read-only view of a node's tree position that metric
// collectors and tests consume.
type TreeView interface {
	ID() NodeID
	ParentID() NodeID
	ChildIDs() []NodeID
	Connected() bool
	IsSource() bool
}

// Protocol is what a concrete overlay multicast protocol (VDM, HMTP, BTP,
// …) exposes to the session runner.
type Protocol interface {
	Handler
	TreeView
	// Base returns the shared peer state (stats, tree bookkeeping).
	Base() *Peer
	// StartJoin begins the join procedure at the session source.
	StartJoin()
	// Leave gracefully leaves the session.
	Leave()
}

// Hooks are the callbacks a protocol implementation plugs into the shared
// peer base.
type Hooks interface {
	// HandleProtocol receives the messages the base does not consume
	// (InfoResponse, ConnResponse, and protocol-specific traffic).
	HandleProtocol(from NodeID, m Message)
	// OnOrphaned fires when the parent announced its departure. hint is
	// the departed parent's own parent — the grandparent reconnection
	// should start at.
	OnOrphaned(leaver NodeID, hint NodeID)
}

// PeerConfig configures a peer base.
type PeerConfig struct {
	ID        NodeID
	Source    NodeID
	MaxDegree int
	IsSource  bool
	// Metric computes probe distances; nil means "measured RTT", i.e.
	// the delay virtual distance of VDM-D.
	Metric vdist.Metric
	// Flow enables the reliable data plane (pacing, ack-clocked windows,
	// FEC parity, NACK retransmit, repair neighbor, pushback) with the
	// given tuning; see internal/flow. Nil keeps the historical
	// fire-and-forget forwarding — which the simulator's byte-identical
	// event traces require, so the sim never sets it.
	Flow *flow.Config
	// WindowSlots sizes the dedupe window (sequence slots tracked,
	// rounded up to a power of two); 0 selects flow.DefaultWindowBits.
	// The simulator shrinks it: its reorder span is milliseconds of
	// virtual time, so a short window dedupes identically while costing
	// 8× less per peer.
	WindowSlots int
}

// Protocol timeouts (seconds of virtual time). Wide-area RTTs stay well
// under a second, so two seconds cleanly separates "slow" from "departed".
const (
	InfoTimeoutS  = 2.0
	ProbeTimeoutS = 2.0
	ConnTimeoutS  = 2.0
)

// Stats accumulates the per-peer observations behind the user-facing
// metrics: startup time, reconnection times, and stream continuity.
type Stats struct {
	JoinStartAt float64 // when StartJoin was issued
	MemberSince float64 // when the first connection completed
	LeftAt      float64 // when the peer left (or session end)
	Startup     float64 // MemberSince − JoinStartAt, −1 until connected

	Reconnects   []float64 // duration of each completed reconnection
	OrphanCount  int       // times the parent departed
	orphanedAt   float64   // −1 when not orphaned
	everJoined   bool
	everConnect  bool
	ParentSwitch int // refinement-driven parent changes

	Received  int64 // distinct chunks received
	Dups      int64 // duplicate chunks suppressed
	Forwarded int64 // chunk copies sent to children
}

// Peer is the protocol-neutral node base: identity, degree-constrained
// tree state, root-path maintenance, the data plane, and the generic
// halves of the join/leave machinery. Protocol packages embed it.
type Peer struct {
	id        NodeID
	source    NodeID
	net       Bus
	maxDegree int
	metric    vdist.Metric

	parent     NodeID
	parentDist float64
	// pool is the bus-shared adjacency slab children and fosters live
	// in; each set is an 8-byte handle instead of a per-peer map.
	pool     *AdjPool
	children AdjSet
	// fosters are temporary quick-start children served beyond the
	// degree limit; they receive data and path updates but are not
	// advertised in InfoResponses and do not consume degree.
	fosters  AdjSet
	rootPath []NodeID
	// The flags share one word, which keeps a Peer inside the runtime's
	// 512-byte size class.
	isSource  bool
	connected bool
	switching bool
	alive     bool

	prober *Prober
	// window dedupes chunks; it lives in the peer and, like the rest of
	// the peer's state, is touched only from its execution context.
	window flow.Window
	stats  Stats
	hooks  Hooks

	// flow is the reliable data plane, nil unless PeerConfig.Flow was
	// set (see flow.go).
	flow *flowState

	// staleFrom counts consecutive chunks received from non-parents,
	// per sender, for stale-edge pruning. Allocated lazily: stale edges
	// are a churn-window anomaly, so most peers never pay for the map.
	staleFrom map[NodeID]int

	// Starvation watchdog (see checkStarvation): the virtual time of the
	// last chunk (or, with flow on, parity) received from the current
	// parent (reset on every parent change), and whether the periodic
	// check is already running. The flow plane's stall pulls read the
	// same clock.
	lastParentFeedAt float64
	starveTicking    bool

	// Status-report telemetry (see status.go): the periodic report
	// ticker, the source-side report consumer and the latest measured
	// distance to the source.
	statusPeriodS float64
	statusSeq     uint32
	statusHandler StatusHandler
	srcDist       float64

	// serveObs observes answered join-protocol requests (see status.go).
	serveObs func(ServeEvent)

	// chunkObs observes every first-time chunk delivery (after dedupe),
	// before forwarding — the measurement tap the benchmark's live
	// workloads hang their latency probes on. Nil for normal peers.
	chunkObs func(DataChunk)

	// traceSampleN attaches an in-band trace tag to every Nth chunk the
	// source emits (0 = off); traceObs observes arriving tagged chunks
	// (see status.go).
	traceSampleN int
	traceObs     func(ChunkTraceSample)

	// fanoutIDs / fanoutFail are reused scratch slices for SendFanout,
	// so a forward allocates nothing in steady state.
	fanoutIDs  []NodeID
	fanoutFail []NodeID
}

// staleChunkThreshold is how many chunks a non-parent must push before
// the peer prunes the stale relationship; transient reordering around a
// parent change stays below it.
const staleChunkThreshold = 3

// Starvation watchdog timing: a connected peer that has received nothing
// from its parent for starveTimeoutS asks the parent whether it is still
// listed as a child (ParentCheck); checks run every starveCheckPeriodS.
// This is what heals a broken handover — a lost ParentChange or Detach
// leaves a child believing in a parent that no longer forwards to it, a
// wedge no chunk-driven rule can clear because no chunks arrive at all.
const (
	starveTimeoutS     = 10.0
	starveCheckPeriodS = 5.0
)

// NewPeer builds a peer base over net — the simulated Network or a live
// transport bus. The caller must register the enclosing protocol node with
// the message carrier and set hooks via SetHooks before any message can
// arrive.
func NewPeer(net Bus, cfg PeerConfig) *Peer {
	if cfg.MaxDegree < 1 {
		cfg.MaxDegree = 1
	}
	winSlots := cfg.WindowSlots
	if winSlots <= 0 {
		winSlots = flow.DefaultWindowBits
	}
	p := &Peer{
		id:        cfg.ID,
		source:    cfg.Source,
		net:       net,
		maxDegree: cfg.MaxDegree,
		isSource:  cfg.IsSource,
		metric:    cfg.Metric,
		parent:    None,
		connected: cfg.IsSource,
		alive:     true,
		stats:     Stats{Startup: -1, orphanedAt: -1, LeftAt: -1},
		pool:      net.AdjPool(),
	}
	p.window.Init(winSlots, flow.DefaultBackfill)
	p.prober = newProber(p)
	if cfg.Flow != nil {
		p.flow = newFlowState(p, *cfg.Flow)
	}
	return p
}

// SetHooks installs the protocol callbacks.
func (p *Peer) SetHooks(h Hooks) { p.hooks = h }

// ID returns the peer's node id.
func (p *Peer) ID() NodeID { return p.id }

// Source returns the session source id.
func (p *Peer) Source() NodeID { return p.source }

// IsSource reports whether this peer is the stream source.
func (p *Peer) IsSource() bool { return p.isSource }

// Alive reports whether the peer is still in the session.
func (p *Peer) Alive() bool { return p.alive }

// Connected reports whether the peer currently has a path to the source.
func (p *Peer) Connected() bool { return p.connected }

// Switching reports whether a refinement parent switch is in flight.
func (p *Peer) Switching() bool { return p.switching }

// ParentID returns the current parent (None for the source and orphans).
func (p *Peer) ParentID() NodeID { return p.parent }

// ParentDist returns the stored virtual distance to the parent.
func (p *Peer) ParentDist() float64 { return p.parentDist }

// FreeDegree returns the remaining child capacity.
func (p *Peer) FreeDegree() int { return p.maxDegree - p.pool.Len(&p.children) }

// ChildIDs returns the regular children in id order (the pool's own
// order). Foster children are excluded: they neither consume degree nor
// appear in information responses.
func (p *Peer) ChildIDs() []NodeID {
	return p.pool.AppendIDs(&p.children, make([]NodeID, 0, p.pool.Len(&p.children)))
}

// FosterIDs returns the current foster children in id order.
func (p *Peer) FosterIDs() []NodeID {
	return p.pool.AppendIDs(&p.fosters, make([]NodeID, 0, p.pool.Len(&p.fosters)))
}

// ChildDist returns the stored distance to child c.
func (p *Peer) ChildDist(c NodeID) (float64, bool) {
	return p.pool.Get(&p.children, c)
}

// RootPath returns the peer's current ancestry, source first, parent last.
func (p *Peer) RootPath() []NodeID {
	return append([]NodeID(nil), p.rootPath...)
}

// Grandparent returns the parent's parent according to the root path, or
// None when unknown (children of the source have no grandparent).
func (p *Peer) Grandparent() NodeID {
	if len(p.rootPath) >= 2 {
		return p.rootPath[len(p.rootPath)-2]
	}
	return None
}

// Stats returns the peer's accumulated statistics.
func (p *Peer) Stats() *Stats { return &p.stats }

// Net returns the bus the peer runs on.
func (p *Peer) Net() Bus { return p.net }

// Now returns the current bus time in seconds.
func (p *Peer) Now() float64 { return p.net.Now() }

// Prober returns the peer's probe manager.
func (p *Peer) Prober() *Prober { return p.prober }

// Measure converts a measured probe round-trip into a virtual distance:
// the elapsed time itself for the delay metric, or the configured metric's
// value otherwise. Measurements against the source are remembered for the
// peer's status reports (the stretch-proxy denominator).
func (p *Peer) Measure(target NodeID, elapsedMS float64) float64 {
	d := elapsedMS
	if p.metric != nil {
		d = p.metric.Distance(int(p.id), int(target))
	}
	if target == p.source && !p.isSource {
		p.srcDist = d
	}
	return d
}

// MarkJoinStart records the instant the runner asked the peer to join.
func (p *Peer) MarkJoinStart() {
	if !p.stats.everJoined {
		p.stats.everJoined = true
		p.stats.JoinStartAt = p.Now()
	}
}

// inRootPath reports whether n is an ancestor according to the root path.
func (p *Peer) inRootPath(n NodeID) bool {
	for _, a := range p.rootPath {
		if a == n {
			return true
		}
	}
	return false
}

// HandleMessage dispatches the generic message set and forwards everything
// else to the protocol hooks.
func (p *Peer) HandleMessage(from NodeID, m Message) {
	if !p.alive {
		return
	}
	switch msg := m.(type) {
	case Ping:
		p.net.Send(p.id, from, Pong{Token: msg.Token})
	case Pong:
		if !p.prober.handlePong(from, msg) {
			p.hooks.HandleProtocol(from, m)
		}
	case InfoRequest:
		p.net.Send(p.id, from, InfoResponse{
			Token:     msg.Token,
			Children:  p.childSnapshot(),
			Free:      p.FreeDegree(),
			Connected: p.connected,
		})
		p.observeServe(ServeEvent{Kind: ServeInfo, From: from, JoinID: msg.JoinID})
	case ConnRequest:
		p.handleConnRequest(from, msg)
	case StatusReport:
		if p.statusHandler != nil {
			p.statusHandler(p.Now(), from, msg)
		}
	case ParentChange:
		p.handleParentChange(from, msg)
	case ParentChangeAck:
		if !msg.OK {
			p.pool.Delete(&p.children, from)
		}
	case PathUpdate:
		if from == p.parent {
			p.setRootPath(msg.Path)
		}
	case Detach:
		p.pool.Delete(&p.children, from)
		p.pool.Delete(&p.fosters, from)
	case ParentCheck:
		child := p.pool.Has(&p.children, from)
		foster := p.pool.Has(&p.fosters, from)
		p.net.Send(p.id, from, ParentCheckAck{IsChild: child || foster})
	case ParentCheckAck:
		p.handleParentCheckAck(from, msg)
	case LeaveNotify:
		p.handleLeaveNotify(from, msg)
	case DataChunk:
		if from != p.parent && !p.isSource {
			if p.flow != nil && p.flow.expectingRepair(from) {
				// Solicited repair traffic from the repair neighbor —
				// expected, not a stale edge.
				delete(p.staleFrom, from)
			} else {
				// Some node still believes we are its child (e.g. an ack
				// was lost mid-switch). Take the data — the window dedupes
				// — and prune the stale edge once the pattern repeats
				// (single occurrences are just in-flight reordering around
				// a parent change).
				if p.staleFrom == nil {
					p.staleFrom = make(map[NodeID]int)
				}
				p.staleFrom[from]++
				if p.staleFrom[from] >= staleChunkThreshold {
					delete(p.staleFrom, from)
					p.net.Send(p.id, from, Detach{})
				}
			}
		} else {
			delete(p.staleFrom, from)
			if from == p.parent {
				p.lastParentFeedAt = p.Now()
			}
		}
		p.handleChunk(from, msg, m)
	case DataAck:
		if p.flow != nil {
			p.flow.onAck(from, msg)
		}
	case DataNack:
		if p.flow != nil {
			p.flow.onNack(from, msg)
		}
	case Parity:
		if p.flow != nil {
			p.flow.onParity(from, msg)
		}
	case Pushback:
		if p.flow != nil {
			p.flow.onPushback(from, msg)
		}
	default:
		p.hooks.HandleProtocol(from, m)
	}
}

func (p *Peer) childSnapshot() []ChildInfo {
	out := make([]ChildInfo, 0, p.pool.Len(&p.children))
	p.pool.Each(&p.children, func(id NodeID, d float64) {
		out = append(out, ChildInfo{ID: id, Dist: d})
	})
	return out
}

// handleConnRequest implements the acceptor side of both attachment kinds.
// A request is refused when the node is itself disconnected, mid-switch,
// or when accepting would create a loop (the requester is an ancestor).
func (p *Peer) handleConnRequest(from NodeID, m ConnRequest) {
	reject := func() {
		p.net.Send(p.id, from, ConnResponse{
			Token:    m.Token,
			Accepted: false,
			Children: p.childSnapshot(),
		})
		p.observeServe(ServeEvent{Kind: ServeConn, From: from, JoinID: m.JoinID})
	}
	accept := func(resp ConnResponse) {
		resp.Token = m.Token
		resp.Accepted = true
		p.net.Send(p.id, from, resp)
		p.observeServe(ServeEvent{Kind: ServeConn, From: from, JoinID: m.JoinID, Accepted: true})
	}
	if (!p.connected && !p.isSource) || p.switching || p.inRootPath(from) || from == p.id {
		reject()
		return
	}
	if m.Foster {
		// Quick-start slot: granted beyond the degree limit; the child
		// is expected to promote or move shortly.
		p.pool.Delete(&p.children, from)
		p.pool.Put(&p.fosters, from, m.Dist)
		accept(ConnResponse{RootPath: p.pathForChildren()})
		return
	}
	if p.pool.Has(&p.children, from) {
		// Idempotent re-request (e.g. a retry after a lost ack window):
		// refresh the distance and accept again.
		p.pool.Put(&p.children, from, m.Dist)
		accept(ConnResponse{RootPath: p.pathForChildren()})
		return
	}
	if p.pool.Has(&p.fosters, from) {
		// Promotion of a foster child to a regular slot.
		if p.FreeDegree() <= 0 {
			reject()
			return
		}
		p.pool.Delete(&p.fosters, from)
		p.pool.Put(&p.children, from, m.Dist)
		accept(ConnResponse{RootPath: p.pathForChildren()})
		return
	}

	var adopted []NodeID
	if m.Kind == ConnSplice {
		for _, c := range m.Adopt {
			if c != from && p.pool.Has(&p.children, c) {
				adopted = append(adopted, c)
			}
		}
	}
	if len(adopted) == 0 && p.FreeDegree() <= 0 {
		reject()
		return
	}
	for _, c := range adopted {
		p.pool.Delete(&p.children, c)
	}
	p.pool.Put(&p.children, from, m.Dist)
	accept(ConnResponse{RootPath: p.pathForChildren(), Adopted: adopted})
}

// pathForChildren is the root path a child of this node should hold.
func (p *Peer) pathForChildren() []NodeID {
	return append(append([]NodeID(nil), p.rootPath...), p.id)
}

func (p *Peer) handleParentChange(from NodeID, m ParentChange) {
	if m.OldParent != p.parent || p.switching || !p.connected {
		p.net.Send(p.id, from, ParentChangeAck{Token: m.Token, OK: false})
		return
	}
	p.parent = from
	p.parentDist = m.Dist
	p.parentAcquired()
	p.setRootPath(m.RootPath)
	p.net.Send(p.id, from, ParentChangeAck{Token: m.Token, OK: true})
}

func (p *Peer) setRootPath(path []NodeID) {
	p.rootPath = append(p.rootPath[:0], path...)
	next := p.pathForChildren()
	for _, c := range p.ChildIDs() {
		if !p.net.Send(p.id, c, PathUpdate{Path: next}) {
			p.pool.Delete(&p.children, c)
		}
	}
	for _, c := range p.FosterIDs() {
		if !p.net.Send(p.id, c, PathUpdate{Path: next}) {
			p.pool.Delete(&p.fosters, c)
		}
	}
}

// parentAcquired resets the starvation clock for a fresh parent and makes
// sure the watchdog ticker is running.
func (p *Peer) parentAcquired() {
	p.lastParentFeedAt = p.Now()
	if p.starveTicking || p.isSource {
		return
	}
	p.starveTicking = true
	p.scheduleStarveCheck()
}

func (p *Peer) scheduleStarveCheck() {
	p.net.AfterArg(starveCheckPeriodS, starveTick, p)
}

// starveTick is the shared watchdog callback (arg: *Peer); boxing a
// pointer into any allocates nothing, so the recurring per-peer check
// costs no heap churn. With flow on it also re-opens a spent round of
// stall pulls, the only probe of an uplink that stays silent.
func starveTick(a any) {
	p := a.(*Peer)
	if !p.alive {
		p.starveTicking = false
		return
	}
	p.checkStarvation()
	if p.flow != nil {
		p.flow.reopenPulls()
	}
	p.scheduleStarveCheck()
}

// checkStarvation probes a silent parent. A parent that answers "not my
// child" — or is gone from the network entirely — means the edge exists
// only on our side (a handover or detach message was lost): reconnect.
// A parent that still claims us just has nothing to forward (stream
// pause, upstream trouble); back off one timeout and keep waiting.
func (p *Peer) checkStarvation() {
	if !p.connected || p.switching || p.parent == None || p.isSource {
		return
	}
	if p.Now()-p.lastParentFeedAt <= starveTimeoutS {
		return
	}
	if !p.net.Send(p.id, p.parent, ParentCheck{}) {
		p.orphanSelf(p.parent)
	}
}

func (p *Peer) handleParentCheckAck(from NodeID, m ParentCheckAck) {
	if from != p.parent || !p.connected || p.switching {
		return
	}
	if m.IsChild {
		p.lastParentFeedAt = p.Now()
		return
	}
	p.orphanSelf(from)
}

// orphanSelf runs the LeaveNotify state transition for a parent that is
// unreachable or has disowned us, reconnecting at the grandparent.
func (p *Peer) orphanSelf(parent NodeID) {
	hint := p.Grandparent()
	p.parent = None
	p.parentDist = 0
	p.connected = false
	p.stats.OrphanCount++
	p.stats.orphanedAt = p.Now()
	p.hooks.OnOrphaned(parent, hint)
}

func (p *Peer) handleLeaveNotify(from NodeID, m LeaveNotify) {
	if from != p.parent {
		return
	}
	p.parent = None
	p.parentDist = 0
	p.connected = false
	p.stats.OrphanCount++
	p.stats.orphanedAt = p.Now()
	p.hooks.OnOrphaned(from, m.GrandparentHint)
}

// SetChunkObserver installs a callback invoked on every first-time chunk
// delivery (duplicates are filtered first), before the chunk is forwarded
// to children. The observer runs on the peer's serialized execution
// context. Nil disables.
func (p *Peer) SetChunkObserver(fn func(DataChunk)) { p.chunkObs = fn }

// handleChunk is the first-time-delivery path for chunk c arriving from
// sender `from` (None for locally recovered chunks, e.g. FEC repairs —
// no edge to attribute the arrival to). m is c as the Message it arrived
// boxed in, which an untraced chunk forwards as is, so relaying it
// allocates nothing; the flow plane's recovered chunks have no box and
// pass nil. A trace-tagged chunk records an edge sample here and is
// re-tagged with this peer's own hop depth, and re-boxed, before it
// forwards, so every receiver down the tree sees the true depth at its
// sender.
func (p *Peer) handleChunk(from NodeID, c DataChunk, m Message) {
	if !p.window.Add(c.Seq) {
		p.stats.Dups++
		return
	}
	p.stats.Received++
	if c.Trace != nil {
		depth := c.Trace.Hops + 1
		if p.traceObs != nil && from != None {
			p.traceObs(ChunkTraceSample{
				From:     from,
				Seq:      c.Seq,
				Depth:    depth,
				LatencyS: p.Now() - c.Trace.OriginS,
			})
		}
		c.Trace = &ChunkTrace{OriginS: c.Trace.OriginS, Hops: depth}
		m = c
	}
	if p.chunkObs != nil {
		p.chunkObs(c)
	}
	if p.flow != nil {
		p.flow.onChunk(c)
		return
	}
	p.forwardChunk(m)
}

// forwardChunk sends the boxed chunk m to the regular children in id
// order, then the fosters in id order (the pool's own order), through one
// SendFanout call: the live transport marshals the chunk once for the
// whole fan-out, and every destination shares the one box. Every
// successful destination counts one Forwarded; a failed one (the child
// silently vanished) loses its tree slot so the degree frees up.
func (p *Peer) forwardChunk(m Message) {
	ids := p.pool.AppendIDs(&p.children, p.fanoutIDs[:0])
	ids = p.pool.AppendIDs(&p.fosters, ids)
	p.fanoutIDs = ids
	if len(ids) == 0 {
		return
	}
	p.fanoutFail = p.net.SendFanout(p.id, ids, m, p.fanoutFail[:0])
	p.stats.Forwarded += int64(len(ids) - len(p.fanoutFail))
	for _, c := range p.fanoutFail {
		p.pool.Delete(&p.children, c)
		p.pool.Delete(&p.fosters, c)
	}
}

// EmitChunk originates chunk seq at the source and pushes it down the
// tree.
func (p *Peer) EmitChunk(seq int64) {
	p.EmitData(DataChunk{Seq: seq})
}

// EmitData originates a full chunk (sequence plus payload) at the source
// and pushes it down the tree.
func (p *Peer) EmitData(c DataChunk) {
	if !p.isSource {
		panic("overlay: EmitChunk on non-source peer")
	}
	if p.window.Add(c.Seq) {
		if p.traceSampleN > 0 && c.Trace == nil && c.Seq%int64(p.traceSampleN) == 0 {
			c.Trace = &ChunkTrace{OriginS: p.Now()}
		}
		if p.chunkObs != nil {
			p.chunkObs(c)
		}
		if p.flow != nil {
			p.flow.onSourceChunk(c)
			return
		}
		p.forwardChunk(c)
	}
}

// ApplyConnect commits an accepted connection: parent, distance, root
// path, membership/startup/reconnect accounting, and grandparent updates
// for any existing children.
func (p *Peer) ApplyConnect(parent NodeID, dist float64, rootPath []NodeID) {
	p.parent = parent
	p.parentDist = dist
	p.connected = true
	p.parentAcquired()
	now := p.Now()
	if !p.stats.everConnect {
		p.stats.everConnect = true
		p.stats.MemberSince = now
		p.stats.Startup = now - p.stats.JoinStartAt
	}
	if p.stats.orphanedAt >= 0 {
		p.stats.Reconnects = append(p.stats.Reconnects, now-p.stats.orphanedAt)
		p.stats.orphanedAt = -1
	}
	p.setRootPath(rootPath)
}

// ApplySwitch commits a refinement-driven parent change: detach from the
// old parent, adopt the new state.
func (p *Peer) ApplySwitch(newParent NodeID, dist float64, rootPath []NodeID) {
	if p.parent != None && p.parent != newParent {
		p.net.Send(p.id, p.parent, Detach{})
	}
	p.stats.ParentSwitch++
	p.parent = newParent
	p.parentDist = dist
	p.connected = true
	p.parentAcquired()
	p.setRootPath(rootPath)
}

// BeginSwitch marks a parent switch in flight; incoming ConnRequests are
// refused until EndSwitch to avoid mutual-switch loops.
func (p *Peer) BeginSwitch() { p.switching = true }

// EndSwitch clears the switch-in-flight mark.
func (p *Peer) EndSwitch() { p.switching = false }

// AdoptChild records a Case-II adoptee and sends it the parent-change
// message with its new root path.
func (p *Peer) AdoptChild(c NodeID, dist float64, oldParent NodeID, token int) {
	p.pool.Put(&p.children, c, dist)
	p.net.Send(p.id, c, ParentChange{
		Token:     token,
		OldParent: oldParent,
		Dist:      dist,
		RootPath:  p.pathForChildren(),
	})
}

// Leave gracefully exits the session: detach from the parent, notify every
// child (carrying the grandparent hint they will reconnect at), and stop
// receiving traffic.
func (p *Peer) Leave() {
	if !p.alive {
		return
	}
	p.stats.LeftAt = p.Now()
	if p.parent != None {
		p.net.Send(p.id, p.parent, Detach{})
	}
	for _, c := range p.ChildIDs() {
		p.net.Send(p.id, c, LeaveNotify{GrandparentHint: p.parent})
	}
	for _, c := range p.FosterIDs() {
		p.net.Send(p.id, c, LeaveNotify{GrandparentHint: p.parent})
	}
	p.alive = false
	p.connected = false
	// Return the adjacency chunks to the shared slab and drop scratch:
	// a churned-out peer must not pin pool memory for the rest of the
	// session.
	p.pool.Clear(&p.children)
	p.pool.Clear(&p.fosters)
	p.staleFrom = nil
	p.fanoutIDs = nil
	p.fanoutFail = nil
	p.net.Unregister(p.id)
}
