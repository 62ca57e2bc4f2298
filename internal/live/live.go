// Package live runs protocol peers on the real clock. The simulator
// executes every peer callback on one virtual-time event loop; here each
// peer gets its own mailbox goroutine that serializes message handling and
// timer callbacks, preserving the single-threaded execution contract the
// protocol state machines were written against, while different peers run
// genuinely concurrently. Messages travel over a UDP transport
// (internal/transport) instead of the simulated overlay.Network.
package live

import (
	"sync"
	"time"

	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/transport"
)

// Peer hosts one protocol node on a live transport. All protocol code —
// message handlers, timer callbacks, StartJoin, Leave — runs on the peer's
// mailbox goroutine, one callback at a time, exactly as on the simulator's
// event loop.
type Peer struct {
	proto overlay.Protocol
	bus   *peerBus
	tr    *transport.UDP

	mu      sync.Mutex
	box     []func()
	wake    chan struct{}
	stopped bool
	// highWater is the deepest the mailbox has ever been — the live
	// runtime's backpressure signal (a mailbox that only grows means the
	// peer cannot keep up with its inbound rate).
	highWater int
	tracer    *obs.Tracer

	done chan struct{}
}

// SetTracer installs the tracer mailbox high-water events are emitted
// through (nil disables). Call before traffic starts.
func (p *Peer) SetTracer(t *obs.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = t
}

// MailboxHighWater reports the deepest queue depth the mailbox reached.
func (p *Peer) MailboxHighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.highWater
}

// NewPeer builds a live peer: build constructs the protocol node over the
// peer's bus (e.g. core.New(bus, pc, cfg, rnd)), and the peer registers it
// with tr and starts the mailbox loop. epoch anchors the bus clock —
// share one epoch across a session so Now() agrees between peers.
func NewPeer(tr *transport.UDP, epoch time.Time, build func(bus overlay.Bus) overlay.Protocol) *Peer {
	p := &Peer{
		tr:   tr,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	p.bus = &peerBus{peer: p, epoch: epoch}
	p.proto = build(p.bus)
	tr.Register(p.proto.ID(), func(from overlay.NodeID, m overlay.Message) {
		p.post(func() { p.proto.HandleMessage(from, m) })
	})
	go p.loop()
	return p
}

// ID returns the hosted node's id.
func (p *Peer) ID() overlay.NodeID { return p.proto.ID() }

// post enqueues fn for serialized execution on the mailbox loop. Posts to
// a stopped peer are discarded.
func (p *Peer) post(fn func()) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.box = append(p.box, fn)
	depth := len(p.box)
	var tr *obs.Tracer
	if depth > p.highWater {
		p.highWater = depth
		tr = p.tracer
	}
	p.mu.Unlock()
	if tr != nil {
		tr.Emit(obs.EvMailboxDepth, obs.Event{Target: int64(overlay.None), Value: float64(depth)})
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Call runs fn on the mailbox loop and waits for it to finish — the
// synchronized window external code (tests, the daemon's status printer)
// uses to inspect or drive protocol state. Calling from inside the loop
// would deadlock; Call is for outside goroutines only. It reports false
// if the peer stopped before fn could run.
func (p *Peer) Call(fn func()) bool {
	ran := make(chan struct{})
	p.post(func() {
		fn()
		close(ran)
	})
	select {
	case <-ran:
		return true
	case <-p.done:
		// The loop drained out; fn may never run.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// StartJoin begins the protocol's join procedure on the mailbox loop.
func (p *Peer) StartJoin() {
	p.post(func() { p.proto.StartJoin() })
}

// Leave runs the protocol's graceful leave and stops the peer.
func (p *Peer) Leave() {
	p.Call(func() { p.proto.Leave() })
	p.Stop()
}

// Stop halts the mailbox loop and detaches from the transport; a timer
// that fires later posts into the stopped mailbox, which discards it.
// Protocol state is frozen as-is; use Leave for a graceful departure.
func (p *Peer) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.stopped = true
	p.mu.Unlock()
	p.tr.Unregister(p.proto.ID())
	select {
	case p.wake <- struct{}{}:
	default:
	}
	<-p.done
}

// loop is the mailbox goroutine: it drains posted callbacks in FIFO order
// until the peer stops.
func (p *Peer) loop() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.box) == 0 && !p.stopped {
			p.mu.Unlock()
			<-p.wake
			p.mu.Lock()
		}
		if p.stopped {
			p.box = nil
			p.mu.Unlock()
			return
		}
		fn := p.box[0]
		p.box = p.box[1:]
		p.mu.Unlock()
		fn()
	}
}

// TreeView is an immutable snapshot of a peer's tree position, captured
// atomically on the mailbox loop so metrics collection never races the
// protocol.
type TreeView struct {
	id        overlay.NodeID
	parent    overlay.NodeID
	children  []overlay.NodeID
	connected bool
	isSource  bool
}

var _ overlay.TreeView = TreeView{}

func (v TreeView) ID() overlay.NodeID         { return v.id }
func (v TreeView) ParentID() overlay.NodeID   { return v.parent }
func (v TreeView) ChildIDs() []overlay.NodeID { return v.children }
func (v TreeView) Connected() bool            { return v.connected }
func (v TreeView) IsSource() bool             { return v.isSource }

// View captures the peer's current tree position. The zero view (with the
// peer's id) is returned if the peer has already stopped.
func (p *Peer) View() TreeView {
	v := TreeView{id: p.proto.ID(), parent: overlay.None}
	p.Call(func() {
		v = TreeView{
			id:        p.proto.ID(),
			parent:    p.proto.ParentID(),
			children:  p.proto.ChildIDs(),
			connected: p.proto.Connected(),
			isSource:  p.proto.IsSource(),
		}
	})
	return v
}

// Connected reports whether the protocol node is currently attached.
func (p *Peer) Connected() bool {
	var c bool
	p.Call(func() { c = p.proto.Connected() })
	return c
}

// Stats copies the peer's accumulated statistics.
func (p *Peer) Stats() overlay.Stats {
	var s overlay.Stats
	p.Call(func() { s = *p.proto.Base().Stats() })
	return s
}

// EmitChunk originates chunk seq from this (source) peer.
func (p *Peer) EmitChunk(seq int64) {
	p.Call(func() { p.proto.Base().EmitChunk(seq) })
}

// EmitData originates a full chunk (sequence plus payload) from this
// (source) peer.
func (p *Peer) EmitData(c overlay.DataChunk) {
	p.Call(func() { p.proto.Base().EmitData(c) })
}

// FlowStats reads the peer's flow-control/repair counters. The counters
// are atomics, so this is safe off the mailbox loop; the zero value is
// returned when flow control is disabled.
func (p *Peer) FlowStats() overlay.FlowStats {
	return p.proto.Base().FlowStats()
}

// peerBus adapts the real clock and a live transport to the overlay.Bus
// interface the protocol state machines run against. Time is seconds
// since the shared session epoch, so protocol timeouts tuned in virtual
// seconds keep their meaning on the wall clock.
type peerBus struct {
	peer  *Peer
	epoch time.Time
	// adj is the peer's private adjacency pool: live peers run on their
	// own goroutines, so they cannot share a slab.
	adj overlay.AdjPool
}

var _ overlay.Bus = (*peerBus)(nil)

// DataQueueDepth reports the transport's unsent data backlog toward to —
// the congestion signal overlay flow control folds into its ECN-style
// pushback.
func (b *peerBus) DataQueueDepth(to overlay.NodeID) int {
	return b.peer.tr.DataQueueDepth(to)
}

func (b *peerBus) Now() float64 { return time.Since(b.epoch).Seconds() }

func (b *peerBus) Send(from, to overlay.NodeID, m overlay.Message) bool {
	return b.peer.tr.Send(from, to, m)
}

// SendFanout delivers one message to many destinations through the
// transport's encode-once batch path.
func (b *peerBus) SendFanout(from overlay.NodeID, tos []overlay.NodeID, m overlay.Message, failed []overlay.NodeID) []overlay.NodeID {
	return b.peer.tr.SendBatch(from, tos, m, failed)
}

func (b *peerBus) AdjPool() *overlay.AdjPool { return &b.adj }

// AfterArg schedules fn(arg) on the peer's mailbox loop d seconds from
// now. Once the peer has stopped, post discards the callback.
func (b *peerBus) AfterArg(d float64, fn func(any), arg any) {
	p := b.peer
	time.AfterFunc(time.Duration(d*float64(time.Second)), func() { p.post(func() { fn(arg) }) })
}

func (b *peerBus) Unregister(id overlay.NodeID) { b.peer.tr.Unregister(id) }
