package core

import (
	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/rng"
)

// Config tunes a VDM node.
type Config struct {
	// Gamma is the collinearity threshold of the directionality test;
	// zero selects DefaultGamma.
	Gamma float64
	// RefinePeriodS enables the optional periodic refinement (a shadow
	// join from the source followed by a parent switch if a better
	// parent emerged); zero disables it, matching the paper's regular
	// experiments.
	RefinePeriodS float64
	// ReconnectAtSource disables the grandparent-first recovery and
	// restarts every reconnection at the source — the ablation that
	// quantifies what the paper's local-repair rule buys.
	ReconnectAtSource bool
	// FosterJoin enables the quick-start the dissertation describes for
	// HMTP ("a node connects root at the beginning to start stream
	// immediately; then it jumps to ideal parent when it is found"):
	// the newcomer attaches to the source right away and the regular
	// directional search runs as an immediate refinement.
	FosterJoin bool
}

func (c Config) withDefaults() Config {
	if c.Gamma <= 0 {
		c.Gamma = DefaultGamma
	}
	return c
}

// Node is one VDM peer: the shared overlay peer base plus VDM's join,
// reconnection and refinement state machines.
type Node struct {
	*overlay.Peer
	cfg    Config
	rnd    *rng.Stream
	join   *joinState
	token  int
	tracer *obs.Tracer

	// joinFree recycles the previous attempt's joinState (maps and
	// scratch slices included); see newJoinState.
	joinFree *joinState

	// timerFree recycles join timeout records, so a join storm's timer
	// traffic does not churn the heap.
	timerFree *joinTimer

	// joinSeq counts join procedures started by this node; curJoin is the
	// correlation id of the current (or most recent) procedure, stamped
	// on every outgoing join message and trace event. A new id is minted
	// per trigger — StartJoin, an orphaning, a refinement timer — while
	// restarts and back-offs keep it, so one logical join stays one
	// correlatable trace.
	joinSeq uint32
	curJoin overlay.JoinID

	refineArmed bool
	// fostered marks a quick-start attachment that still occupies a
	// beyond-degree foster slot; the node keeps searching until it has
	// promoted itself or moved to a proper parent.
	fostered bool
}

// Fostered reports whether the node currently sits in a foster slot.
func (n *Node) Fostered() bool { return n.fostered }

// JoinID returns the correlation id of the current (or most recent) join
// procedure; zero before the first join.
func (n *Node) JoinID() overlay.JoinID { return n.curJoin }

// nextJoinID mints the correlation id for a new join procedure.
func (n *Node) nextJoinID() overlay.JoinID {
	n.joinSeq++
	n.curJoin = overlay.MakeJoinID(n.ID(), n.joinSeq)
	return n.curJoin
}

// emit stamps the current join id onto e and forwards it to the tracer.
// All join-machinery events go through here so every record of one
// procedure — across restarts — carries the same join_id. An untraced node
// returns before formatting the id: nobody would read it.
func (n *Node) emit(typ string, e obs.Event) {
	if n.tracer == nil {
		return
	}
	e.JoinID = n.curJoin.String()
	n.tracer.Emit(typ, e)
}

// SetTracer installs the protocol event tracer (nil disables tracing).
// The simulator and the live runtime install tracers over the same bus
// clock the node runs on, so event timestamps line up with protocol time.
// It also bridges the peer base's served-request observations into the
// trace stream: when this node answers another peer's InfoRequest or
// ConnRequest, an info_served/conn_served event carrying the requester's
// join id lands in this node's trace — the cross-peer half of a join
// trace. Trace-tagged chunk arrivals bridge the same way, as chunk_path
// events keyed by the chunk sequence — the data-plane half.
func (n *Node) SetTracer(t *obs.Tracer) {
	n.tracer = t
	if t == nil {
		n.Peer.SetServeObserver(nil)
		n.Peer.SetChunkTraceObserver(nil)
		return
	}
	n.Peer.SetServeObserver(func(ev overlay.ServeEvent) {
		e := obs.Event{Target: int64(ev.From), JoinID: ev.JoinID.String()}
		switch ev.Kind {
		case overlay.ServeInfo:
			t.Emit(obs.EvInfoServed, e)
		case overlay.ServeConn:
			if ev.Accepted {
				e.Case = "accept"
			} else {
				e.Case = "reject"
			}
			t.Emit(obs.EvConnServed, e)
		}
	})
	n.Peer.SetChunkTraceObserver(func(s overlay.ChunkTraceSample) {
		t.Emit(obs.EvChunkPath, obs.Event{
			Target: int64(s.From),
			Seq:    s.Seq,
			Step:   s.Depth,
			Value:  s.LatencyS * 1e3,
		})
	})
}

// fosterRetry re-runs the directional search while the node still holds a
// foster slot (e.g. every proper candidate was briefly saturated).
func (n *Node) fosterRetry() {
	if !n.fostered {
		return
	}
	n.Net().After(5, func() {
		if n.Alive() && n.fostered && n.Connected() && n.join == nil {
			n.begin(purposeRefine, n.Source())
		}
	})
}

var _ overlay.Protocol = (*Node)(nil)

// New builds a VDM node over the given network. rnd jitters refinement
// timers (it may be nil when refinement is disabled).
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

// StartJoin begins the join procedure at the source. With FosterJoin the
// node first attaches directly to the source (or, if the source is full,
// proceeds normally) so the stream starts flowing while the directional
// search runs.
func (n *Node) StartJoin() {
	if n.IsSource() || !n.Alive() {
		return
	}
	n.MarkJoinStart()
	n.nextJoinID()
	if n.cfg.FosterJoin {
		js := n.newJoinState(purposeJoin, 0)
		js.foster = true
		n.join = js
		n.emit(obs.EvJoinStart, obs.Event{Target: int64(n.Source()), Detail: "foster"})
		n.connect(js, n.Source(), overlay.ConnChild, nil)
		return
	}
	n.begin(purposeJoin, n.Source())
}

// HandleProtocol consumes the join-procedure responses.
func (n *Node) HandleProtocol(from overlay.NodeID, m overlay.Message) {
	switch msg := m.(type) {
	case overlay.InfoResponse:
		n.onInfoResponse(from, msg)
	case overlay.ConnResponse:
		n.onConnResponse(from, msg)
	}
}

// OnOrphaned starts reconnection at the grandparent, falling back to the
// source when the grandparent is unknown (or turns out to have departed
// too, which the info timeout detects).
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) {
	if n.join != nil && n.join.purpose == purposeRefine {
		// Abandon the in-flight refinement; reconnection has priority.
		n.EndSwitch()
		n.endJoin(n.join)
	}
	// The orphan event carries the reconnection's join id, so the whole
	// recovery — trigger included — reads as one trace.
	n.nextJoinID()
	n.emit(obs.EvOrphaned, obs.Event{Target: int64(leaver), Detail: hintDetail(hint)})
	start := hint
	if n.cfg.ReconnectAtSource || start == overlay.None || start == leaver || start == n.ID() {
		start = n.Source()
	}
	n.begin(purposeReconnect, start)
}

// maybeScheduleRefine arms the periodic refinement timer once, after the
// first successful connection.
func (n *Node) maybeScheduleRefine() {
	if n.cfg.RefinePeriodS <= 0 || n.refineArmed {
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
	n.Net().AfterArg(period, refineTick, n)
}

// refineTick is the shared refinement-timer callback (arg: *Node).
func refineTick(a any) {
	n := a.(*Node)
	if !n.Alive() {
		return
	}
	if n.Connected() && n.join == nil && !n.Switching() {
		n.nextJoinID()
		n.begin(purposeRefine, n.Source())
	}
	n.scheduleRefine()
}
