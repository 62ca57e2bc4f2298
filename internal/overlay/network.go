package overlay

import (
	"vdm/internal/eventq"
	"vdm/internal/rng"
	"vdm/internal/underlay"
)

// Handler receives messages addressed to one node.
type Handler interface {
	HandleMessage(from NodeID, m Message)
}

// Network delivers messages between registered nodes over the underlay:
// each message arrives one one-way delay after it was sent. Data (every
// message IsControl says is not control: chunks, parity, acks, NACKs)
// is subject to the underlay's end-to-end loss; control messages are
// reliable (they stand for small retransmitted TCP exchanges, as in the
// PlanetLab implementation). The network also keeps the control/data
// counters behind the paper's overhead metric, in the Counters struct it
// shares with the live transports.
//
// Every draw (chunk loss, control loss, delivery jitter) is keyed: a pure
// function of (seed, edge, per-edge send index), never a value consumed
// from a shared stream in send order. That makes a session's history
// independent of how events interleave, which is what lets the same
// Network be the single queue of a serial session or one queue of a
// ShardRouter fabric (see xshard) with byte-identical results.
type Network struct {
	Sim *eventq.Sim
	U   underlay.Underlay

	// handlers is indexed by NodeID (simulated ids are dense slot
	// numbers); nil means not registered. A slice costs 8 bytes per slot
	// against ~50 per map entry and makes the delivery-path lookup a
	// bounds check instead of a hash probe. In a fabric only the slots
	// this queue owns are ever non-nil.
	handlers []Handler

	// adj backs the children/fosters sets of every peer on this bus (see
	// AdjPool): one shared chunk slab instead of two maps per peer.
	adj AdjPool

	// ctrs is the network's own counters, or the fabric-wide ones when a
	// ShardRouter built the network.
	ctrs *Counters

	// CtrlLossProb, when positive, drops each control message with this
	// probability — fault injection for protocol-robustness tests. The
	// default 0 models control over retransmitting transport (TCP), as
	// the PlanetLab implementation ran.
	CtrlLossProb float64

	// TraceFn, when set, observes every send (including drops) — a
	// debugging tap, not part of the protocol. In a fabric the queues run
	// on separate goroutines, so a shared tap must lock.
	TraceFn func(at float64, from, to NodeID, m Message)

	// probe, when set, observes every send for the engine profiler
	// (message-mix and hot-peer accounting). Unlike TraceFn it is meant
	// to stay attached for whole sessions, so implementations must be
	// cheap: a few counter bumps, no locks, no allocation.
	probe SendProbe

	drawSeed  int64
	kj        underlay.KeyedJitter // nil: the underlay has no jitter to key
	edgeDraws rng.EdgeCounters

	// freeDel recycles delivery records: every Send schedules one, so
	// without reuse delivery closures dominate a session's allocations.
	freeDel *delivery
	// delivered counts fired deliveries; the flight recorder splits the
	// queue's processed events into deliveries and timers with it.
	delivered uint64

	// x is the cross-shard hook a ShardRouter installs; nil on a
	// single-queue network, where Send pays one nil check for it.
	x *xshard
}

// Keyed-draw stream ids (distinct per edge under the network's seed).
const (
	drawStreamData uint32 = 1
	drawStreamCtrl uint32 = 2
)

// SendProbe observes every Send on a simulated bus, including sends the
// network subsequently drops — the profiling tap behind the simulation
// flight recorder. It runs on the hot path of every message, so
// implementations must be cheap and, in a fabric, are per-queue (never
// shared across goroutines).
type SendProbe interface {
	ObserveSend(from, to NodeID, m Message)
}

// SetSendProbe attaches (or, with nil, detaches) the profiling tap. In a
// fabric, call before the shard workers start or at a barrier.
func (n *Network) SetSendProbe(p SendProbe) { n.probe = p }

// delivery is one in-flight message, scheduled via the event queue's
// arg-carrying form so the hot send path allocates nothing in steady
// state.
type delivery struct {
	net      *Network
	from, to NodeID
	m        Message
	next     *delivery // free-list link
}

// deliver hands the message to its destination handler and recycles the
// record first, so a handler that sends more messages can reuse it
// immediately.
func deliver(a any) {
	d := a.(*delivery)
	n, from, to, m := d.net, d.from, d.to, d.m
	d.m = nil
	d.next = n.freeDel
	n.freeDel = d
	n.delivered++
	if h := n.handler(to); h != nil {
		h.HandleMessage(from, m)
	}
}

// scheduleDelivery enqueues a delivery at absolute time at.
func (n *Network) scheduleDelivery(at float64, from, to NodeID, m Message) {
	del := n.freeDel
	if del == nil {
		del = &delivery{net: n}
	} else {
		n.freeDel = del.next
		del.next = nil
	}
	del.from, del.to, del.m = from, to, m
	n.Sim.AtArg(at, deliver, del)
}

var _ Bus = (*Network)(nil)

// NewNetwork builds a network over u driven by sim; drawSeed keys the
// loss and jitter draws. Delivery jitter is keyed when the underlay
// implements KeyedJitter (both generated underlays do); otherwise
// deliveries take the underlay's plain one-way delay.
func NewNetwork(sim *eventq.Sim, u underlay.Underlay, drawSeed int64) *Network {
	kj, _ := u.(underlay.KeyedJitter)
	return &Network{
		Sim:      sim,
		U:        u,
		ctrs:     new(Counters),
		drawSeed: drawSeed,
		kj:       kj,
	}
}

// AdjPool returns the bus-shared adjacency slab peers on this network
// store their children/fosters in.
func (n *Network) AdjPool() *AdjPool { return &n.adj }

// handler returns the handler for id, or nil.
func (n *Network) handler(id NodeID) Handler {
	if id < 0 || int(id) >= len(n.handlers) {
		return nil
	}
	return n.handlers[id]
}

// Register attaches a handler for node id (in a fabric: a node this
// queue owns).
func (n *Network) Register(id NodeID, h Handler) {
	if int(id) >= len(n.handlers) {
		want := int(id) + 1
		if min := 2 * len(n.handlers); want < min {
			want = min
		}
		grown := make([]Handler, want)
		copy(grown, n.handlers)
		n.handlers = grown
	}
	n.handlers[id] = h
}

// Unregister removes node id; in-flight messages to it are dropped at
// delivery time.
func (n *Network) Unregister(id NodeID) {
	if id >= 0 && int(id) < len(n.handlers) {
		n.handlers[id] = nil
	}
}

// Now returns the current virtual time in seconds.
func (n *Network) Now() float64 { return n.Sim.Now() }

// AfterArg schedules fn(arg) d virtual seconds from now without a
// closure.
func (n *Network) AfterArg(d float64, fn func(any), arg any) { n.Sim.AfterArg(d, fn, arg) }

// Deliveries reports how many message deliveries this network's queue has
// fired; the rest of the queue's processed events are timers.
func (n *Network) Deliveries() uint64 { return n.delivered }

// Send schedules delivery of m from→to after the underlay one-way delay.
// It reports whether the destination was registered at send time (a
// transport-level failure signal, standing for a TCP reset).
func (n *Network) Send(from, to NodeID, m Message) bool {
	if n.TraceFn != nil {
		n.TraceFn(n.Sim.Now(), from, to, m)
	}
	if n.probe != nil {
		n.probe.ObserveSend(from, to, m)
	}
	draw := n.edgeDraws.Next(uint32(from), uint32(to))
	if !IsControl(m) {
		n.ctrs.Data.Add(1)
		if p := n.U.LossRate(int(from), int(to)); p > 0 && n.drop(from, to, drawStreamData, draw, p) {
			n.ctrs.DataDrops.Add(1)
			return true
		}
	} else {
		n.ctrs.Ctrl.Add(1)
		if n.CtrlLossProb > 0 && n.drop(from, to, drawStreamCtrl, draw, n.CtrlLossProb) {
			n.ctrs.CtrlDrops.Add(1)
			return true
		}
	}
	if n.x != nil {
		if dst := n.x.r.owner[to]; dst != n.x.idx {
			return n.x.send(n, dst, from, to, m, draw)
		}
	}
	if n.handler(to) == nil {
		n.ctrs.Undeliver.Add(1)
		return false
	}
	n.scheduleDelivery(n.Sim.Now()+n.delayS(from, to, draw), from, to, m)
	return true
}

// SendFanout calls Send once per destination, in order, so a fan-out
// draws, counts and schedules exactly as the sends it stands for.
func (n *Network) SendFanout(from NodeID, tos []NodeID, m Message, failed []NodeID) []NodeID {
	for _, to := range tos {
		if !n.Send(from, to, m) {
			failed = append(failed, to)
		}
	}
	return failed
}

// DataQueueDepth returns 0: the simulator has no transport queue.
func (n *Network) DataQueueDepth(NodeID) int { return 0 }

// drop decides one keyed Bernoulli loss. Send calls it only for p > 0: a
// keyed uniform is never below zero, so skipping the draw at probability
// zero decides the same and saves the hash.
func (n *Network) drop(from, to NodeID, stream uint32, draw uint64, p float64) bool {
	return rng.KeyedBool(n.drawSeed, uint64(uint32(from)), uint64(uint32(to)), stream, draw, p)
}

// delayS returns the delivery delay in seconds for this send.
func (n *Network) delayS(from, to NodeID, draw uint64) float64 {
	if n.kj != nil {
		return n.kj.OneWayDelayMSKeyed(int(from), int(to), draw) / 1000
	}
	return n.U.OneWayDelayMS(int(from), int(to)) / 1000
}

// Overhead returns the cumulative control-to-data message ratio, the
// paper's overhead metric. It returns 0 before any data flowed.
func (n *Network) Overhead() float64 { return n.ctrs.Overhead() }
