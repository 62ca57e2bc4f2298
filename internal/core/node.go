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

// Node is one VDM peer: the shared join walk (overlay.Descent) under VDM's
// rule — the directionality test, Case II splices, the foster quick-start
// and grandparent-first reconnection.
type Node struct {
	overlay.Descent
	cfg    Config
	tracer *obs.Tracer
	// fostered marks a quick-start attachment that still occupies a
	// beyond-degree foster slot; the node keeps searching until it has
	// promoted itself or moved to a proper parent.
	fostered bool
}

// emit stamps the current join id onto e and forwards it to the tracer.
// Every record of one procedure — across restarts — carries the same
// join_id. An untraced node returns before formatting the id: nobody
// would read it.
func (n *Node) emit(typ string, e obs.Event) {
	if n.tracer == nil {
		return
	}
	e.JoinID = n.JoinID().String()
	n.tracer.Emit(typ, e)
}

// walkEventTypes names each overlay.WalkEventKind in the trace stream.
var walkEventTypes = [...]string{
	overlay.WalkStart:   obs.EvJoinStart,
	overlay.WalkInfo:    obs.EvJoinStep,
	overlay.WalkConn:    obs.EvJoinConnect,
	overlay.WalkTimeout: obs.EvJoinTimeout,
	overlay.WalkRestart: obs.EvJoinRestart,
	overlay.WalkDone:    obs.EvJoinDone,
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
		n.SetWalkObserver(nil)
		n.Peer.SetServeObserver(nil)
		n.Peer.SetChunkTraceObserver(nil)
		return
	}
	n.SetWalkObserver(func(ev overlay.WalkEvent) {
		t.Emit(walkEventTypes[ev.Kind], obs.Event{
			Target: int64(ev.Target),
			Case:   ev.Case,
			Step:   ev.Step,
			Value:  ev.Value,
			Detail: ev.Detail,
			JoinID: ev.JoinID.String(),
		})
	})
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

var _ overlay.Protocol = (*Node)(nil)

// New builds a VDM node over the given network. rnd jitters refinement
// timers (it may be nil when refinement is disabled).
func New(net overlay.Bus, pc overlay.PeerConfig, cfg Config, rnd *rng.Stream) *Node {
	n := &Node{cfg: cfg.withDefaults()}
	n.Init(overlay.NewPeer(net, pc), n, rnd)
	return n
}

// StartJoin begins the join procedure at the source. With FosterJoin the
// node first attaches directly to the source so the stream starts flowing
// while the directional search runs.
func (n *Node) StartJoin() {
	if n.cfg.FosterJoin {
		n.StartFoster()
		return
	}
	n.Descent.StartJoin()
}

// OnOrphaned starts reconnection at the grandparent (or, under
// ReconnectAtSource, at the source); a grandparent that has departed too
// sends the walk back to the source. An in-flight refinement is
// abandoned: reconnection has priority.
func (n *Node) OnOrphaned(leaver, hint overlay.NodeID) {
	// The orphan event carries the reconnection's join id, so the whole
	// recovery — trigger included — reads as one trace.
	n.NextJoinID()
	n.emit(obs.EvOrphaned, obs.Event{Target: int64(leaver), Detail: hintDetail(hint)})
	if n.cfg.ReconnectAtSource {
		hint = overlay.None
	}
	n.Reconnect(leaver, hint)
}
