package overlay

import (
	"fmt"
	"sort"

	"vdm/internal/eventq"
	"vdm/internal/underlay"
)

// AliveAtFunc answers whether a node is registered at virtual time t.
// The sharded engine precomputes this from the scenario script (joins and
// leaves are the only registration changes, and a leave unregisters
// synchronously), so a sender can learn a remote destination's liveness
// without touching the destination shard.
type AliveAtFunc func(id NodeID, at float64) bool

// ShardRouter connects S Networks, one per shard event queue, into one
// overlay fabric. Each is an ordinary Network with the cross-shard hook
// installed: same-shard sends schedule directly on the shard's queue;
// sends to a node another shard owns are buffered in per-destination
// outboxes and enqueued at epoch barriers by Exchange, in a deterministic
// total order. The traffic counters are one set of atomics shared by all
// S networks.
type ShardRouter struct {
	owner     []int // node id -> shard
	lookahead float64
	aliveAt   AliveAtFunc
	nets      []*Network

	scratch []xdelivery
}

// xshard is the cross-shard half of a Network that is one queue of a
// fabric: which queue it is, and the deliveries it holds for the others
// until the next Exchange.
type xshard struct {
	r       *ShardRouter
	idx     int
	outbox  [][]xdelivery
	sendIdx uint64
}

// xdelivery is one cross-shard message awaiting exchange.
type xdelivery struct {
	at       float64 // absolute delivery time
	from, to NodeID
	m        Message
	idx      uint64 // per-source-shard send counter, for total ordering
}

// NewShardRouter builds the fabric over u for the given shard event
// queues; owner maps node ids to shards and aliveAt is the membership
// timeline. The caller steps the queues in epochs no longer than
// lookahead (seconds), a lower bound on the delay of every message
// between two shards (sim takes both owner and lookahead from
// underlay.KeyedJitter.Partition); Exchange reports a delivery that
// breaks the bound.
func NewShardRouter(u underlay.Underlay, drawSeed int64, sims []*eventq.Sim, owner []int, lookahead float64, aliveAt AliveAtFunc) *ShardRouter {
	r := &ShardRouter{owner: owner, lookahead: lookahead, aliveAt: aliveAt}
	ctrs := new(Counters)
	for i, s := range sims {
		n := NewNetwork(s, u, drawSeed)
		n.ctrs = ctrs
		n.x = &xshard{r: r, idx: i, outbox: make([][]xdelivery, len(sims))}
		r.nets = append(r.nets, n)
	}
	return r
}

// Net returns shard i's bus.
func (r *ShardRouter) Net(i int) *Network { return r.nets[i] }

// send is the cross-shard tail of Network.Send, after the loss draws: the
// destination's liveness comes from the membership timeline instead of a
// handler table this goroutine may not read, and the delivery waits in
// the outbox for the next Exchange.
func (x *xshard) send(n *Network, dst int, from, to NodeID, m Message, draw uint64) bool {
	now := n.Sim.Now()
	if !x.r.aliveAt(to, now) {
		n.ctrs.Undeliver.Add(1)
		return false
	}
	x.outbox[dst] = append(x.outbox[dst], xdelivery{at: now + n.delayS(from, to, draw), from: from, to: to, m: m, idx: x.sendIdx})
	x.sendIdx++
	return true
}

// Exchange drains every outbox into the destination shards' event queues,
// in (deliverAt, from, sendIdx) order — a total order, since a sender's
// send indices are unique. Call only at epoch barriers, with every shard
// paused: it touches all shard queues. It returns how many deliveries
// moved, or an error for a delivery timed before its destination's clock:
// the epoch outran the lookahead, and the run is no longer the serial one.
func (r *ShardRouter) Exchange() (int, error) {
	moved := 0
	for d, dst := range r.nets {
		batch := r.scratch[:0]
		for _, src := range r.nets {
			ob := src.x.outbox[d]
			batch = append(batch, ob...)
			// Zero the entries so the outbox backing array does not pin
			// payloads until the next exchange.
			clear(ob)
			src.x.outbox[d] = ob[:0]
		}
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].at != batch[j].at {
				return batch[i].at < batch[j].at
			}
			if batch[i].from != batch[j].from {
				return batch[i].from < batch[j].from
			}
			return batch[i].idx < batch[j].idx
		})
		for _, x := range batch {
			if now := dst.Sim.Now(); x.at < now {
				return moved, fmt.Errorf("overlay: delivery %d→%d from shard %d at t=%vs lands before shard %d's clock %vs: an epoch outran the %vs lookahead",
					x.from, x.to, r.owner[x.from], x.at, d, now, r.lookahead)
			}
			dst.scheduleDelivery(x.at, x.from, x.to, x.m)
		}
		moved += len(batch)
		clear(batch)
		r.scratch = batch[:0]
	}
	return moved, nil
}

// DiscardOutboxes drops any deliveries still buffered (used at the final
// barrier: the serial engine schedules past-the-end deliveries too, it
// just never runs them).
func (r *ShardRouter) DiscardOutboxes() {
	for _, src := range r.nets {
		for d := range src.x.outbox {
			clear(src.x.outbox[d])
			src.x.outbox[d] = src.x.outbox[d][:0]
		}
	}
}
