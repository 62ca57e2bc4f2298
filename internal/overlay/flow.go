package overlay

import (
	"slices"
	"sync/atomic"

	"vdm/internal/flow"
)

// flowState is the per-peer reliable data plane, active when
// PeerConfig.Flow is set (nil keeps the historical fire-and-forget
// forwarding, which the simulator's byte-identical traces rely on). It
// composes the internal/flow mechanisms into the protocol:
//
//   - sending: every child gets a token bucket and an ack-clocked window;
//     chunks that can't go now wait in a bounded per-child queue drained
//     on acks and flow ticks (drop-oldest beyond flowQueueCap; a dropped
//     chunk stays NACK-recoverable).
//   - receiving: a second window tracks the cumulative-ack point and the
//     missing ranges above it; acks flow to the parent every flowAckEvery
//     chunks, NACKs go to the parent after flowNackDelayS and to the repair
//     neighbor after flowNackRetries attempts.
//   - repair: the source emits one XOR parity per FECGroup chunks so a
//     single loss per group heals locally; a retransmit cache serves
//     NACKs; and when the uplink goes silent for StallS the peer pulls
//     the stream from its repair neighbor (grandparent or best probed
//     non-parent) — the escape hatch that survives a killed link without
//     waiting for tree repair.
//   - congestion: when local forwarding queues (pacing + transport) pass
//     flowPushbackHigh the peer tells its parent, which halves this child's
//     pacing rate and recovers it additively (AIMD per child edge).
//
// All methods run on the peer's serialized execution context; only the
// stat counters are read cross-goroutine (metrics collectors) and are
// therefore atomic.
// The reliable data plane's timers, sizes and thresholds. What vdmd's
// flags set (the pacing rate and the FEC group) and the stall timeout are
// in flow.Config.
const (
	// flowTickS is the flow timer period in seconds — the cadence of
	// queue draining, ack flushing, NACK scans and rate recovery.
	flowTickS = 0.02
	// flowAckEvery is how many fresh chunks a receiver accepts before
	// acking its parent (the flow tick also flushes pending acks).
	flowAckEvery = 16
	// flowNackDelayS is how long a gap must stay open before the first
	// NACK, absorbing plain reordering.
	flowNackDelayS = 0.03
	// flowBurst is the token-bucket depth in chunks — how far a quiet
	// child may exceed the pacing rate momentarily.
	flowBurst = 64
	// flowWindow is the ack-clocked sender window: at most this many
	// chunks past the child's cumulative ack are in flight.
	flowWindow = 512
	// flowNackRetries is how many NACKs go to the parent before the
	// repair neighbor is tried instead.
	flowNackRetries = 2
	// flowNackGiveUp is the total NACK attempts per sequence before it is
	// abandoned (marked seen so the stream advances).
	flowNackGiveUp = 8
	// flowRetainChunks is the retransmit ring's length: a repair is served
	// only for a sequence at most this far behind the newest one cached.
	// It covers the plane's two repair horizons:
	//   - a gap NACK asks only for sequences above the child's cumulative
	//     ack, and the parent sends nothing past that ack plus flowWindow,
	//     so the ring holds flowWindow plus the ack's lag;
	//   - a stall pull asks from the puller's cum+1 after StallS + flowTickS
	//     of silence (0.27 s at the defaults), ≈ 540 chunks behind its
	//     target's frontier at 2 000 chunks/s.
	// Twice flowWindow holds a full window plus a window of ack lag, and
	// a stall-pull lag up to ≈ 3 800 chunks/s at the default timers. On a
	// 1 %-loss loopback stream at 2 000 chunks/s, the oldest repair
	// served over 12 seeds was 485 chunks behind.
	flowRetainChunks = 2 * flowWindow
	// flowQueueCap bounds the per-child pacing queue; beyond it the oldest
	// queued chunk is dropped (counted, and recoverable via NACK/FEC).
	flowQueueCap = 1024
	// flowPushbackHigh is the queued-frame depth (pacing queue plus
	// transport coalescer queue) at which a peer sends Pushback to its
	// parent, halving its inbound rate.
	flowPushbackHigh = 256
	// flowMinRateFrac floors pushback throttling at this fraction of the
	// base rate.
	flowMinRateFrac = 1.0 / 16
	// flowRecoverS is how many seconds a fully throttled rate takes to
	// climb back to the base rate (additive recovery).
	flowRecoverS = 2.0
	// flowPullWidth is how many sequence numbers past the cumulative ack a
	// stall pull requests per round.
	flowPullWidth = 64
)

type flowState struct {
	p   *Peer
	cfg flow.Config

	// Sender side.
	children map[NodeID]*childFlow
	sendIDs  []NodeID // scratch: the fan-out's ids, the tick's drain order

	// Receiver side.
	tracker      *flow.Window // cum-ack / gap tracking (dedupe stays in Peer.window)
	cache        *flow.Cache
	enc          *flow.Encoder // source only
	dec          *flow.Decoder
	nacks        map[int64]*nackState
	nackScratch  []flow.Range
	sinceAck     int
	lastAckedCum int64
	lastParentAt float64 // last stream traffic seen from the parent
	lastPullAt   float64
	lastPushAt   float64

	// Repair neighbor: best non-parent candidate from join probes, with
	// grandparent and source as fallbacks at use time.
	repairCand NodeID
	repairDist float64

	// expect maps a repair target to the deadline until which chunks
	// from it are expected — exempting them from stale-edge pruning.
	expect map[NodeID]float64

	st flowCounters
}

// childFlow is the sender state for one child edge.
type childFlow struct {
	bucket       *flow.Bucket
	q            []Message // paced backlog, oldest first
	acked        int64     // child's cumulative ack
	ackSeen      bool
	lastSent     int64 // highest chunk seq sent
	stalledSince float64

	// Per-edge telemetry: NACKs and pushbacks received from this child.
	nacks  int64
	pushes int64
}

type nackState struct {
	attempts int
	nextAt   float64
}

type flowCounters struct {
	acksSent, acksRecv   atomic.Int64
	nacksSent, nacksRecv atomic.Int64
	retransServed        atomic.Int64
	paritySent           atomic.Int64
	parityRecv           atomic.Int64
	fecRepairs           atomic.Int64
	pushSent, pushRecv   atomic.Int64
	paceDrops            atomic.Int64
	windowStalls         atomic.Int64
	stallPulls           atomic.Int64
	skipped              atomic.Int64
	repairNbr            atomic.Int64
}

// FlowStats is a point-in-time snapshot of the reliable data plane's
// counters, safe to take from any goroutine. All zeros when the flow
// subsystem is disabled.
type FlowStats struct {
	Enabled bool
	// Ack clock.
	AcksSent, AcksRecv int64
	// Loss repair.
	NacksSent, NacksRecv int64
	RetransmitsServed    int64
	ParitySent           int64
	ParityRecv           int64
	FECRepairs           int64
	StallPulls           int64
	SkippedSeqs          int64
	// Congestion.
	PushbacksSent, PushbacksRecv int64
	PaceDrops                    int64
	WindowStalls                 int64
	// RepairNeighbor is the current secondary repair target (None until
	// one is known).
	RepairNeighbor NodeID
}

// FlowStats snapshots the reliable data plane's counters.
func (p *Peer) FlowStats() FlowStats {
	if p.flow == nil {
		return FlowStats{RepairNeighbor: None}
	}
	st := &p.flow.st
	return FlowStats{
		Enabled:           true,
		AcksSent:          st.acksSent.Load(),
		AcksRecv:          st.acksRecv.Load(),
		NacksSent:         st.nacksSent.Load(),
		NacksRecv:         st.nacksRecv.Load(),
		RetransmitsServed: st.retransServed.Load(),
		ParitySent:        st.paritySent.Load(),
		ParityRecv:        st.parityRecv.Load(),
		FECRepairs:        st.fecRepairs.Load(),
		StallPulls:        st.stallPulls.Load(),
		SkippedSeqs:       st.skipped.Load(),
		PushbacksSent:     st.pushSent.Load(),
		PushbacksRecv:     st.pushRecv.Load(),
		PaceDrops:         st.paceDrops.Load(),
		WindowStalls:      st.windowStalls.Load(),
		RepairNeighbor:    NodeID(st.repairNbr.Load()),
	}
}

// OfferRepairCandidate feeds one probed peer (id at virtual distance dist)
// into the repair-neighbor selection. Protocols call this with their
// join-probe results; the closest candidate by (dist, id) other than the
// parent wins, whatever the order of the offers, and is used as the
// secondary repair path when the parent can't serve a NACK or the uplink
// dies. A candidate that has since become the parent gives way to any
// offer. A no-op while the flow subsystem is disabled.
func (p *Peer) OfferRepairCandidate(id NodeID, dist float64) {
	f := p.flow
	if f == nil || id == p.id || id == None || id == p.parent {
		return
	}
	c := f.repairCand
	if c == None || c == p.parent || dist < f.repairDist || (dist == f.repairDist && id < c) {
		f.repairCand = id
		f.repairDist = dist
		f.st.repairNbr.Store(int64(id))
	}
}

func newFlowState(p *Peer, cfg flow.Config) *flowState {
	cfg = cfg.WithDefaults()
	f := &flowState{
		p:          p,
		cfg:        cfg,
		children:   make(map[NodeID]*childFlow),
		tracker:    flow.NewWindow(2*flow.DefaultWindowBits, 0),
		cache:      flow.NewCache(flowRetainChunks),
		nacks:      make(map[int64]*nackState),
		expect:     make(map[NodeID]float64),
		repairCand: None,
		lastPullAt: -1e18,
	}
	f.st.repairNbr.Store(int64(None))
	if cfg.FECGroup > 1 {
		if p.isSource {
			f.enc = flow.NewEncoder(cfg.FECGroup)
		}
		f.dec = flow.NewDecoder(cfg.FECGroup, 64)
	}
	f.tickLater()
	return f
}

func (f *flowState) tickLater() {
	f.p.net.AfterArg(flowTickS, flowTick, f)
}

// flowTick is the flow timer callback (arg: *flowState).
func flowTick(a any) {
	f := a.(*flowState)
	if !f.p.alive {
		return
	}
	f.run(f.p.net.Now())
	f.tickLater()
}

// run is the flow tick: prune dead child state, drain paced queues in
// ascending child id (on a simulated bus the send order is the event
// order), recover throttled rates, flush acks, scan gaps into NACKs, pull
// on a stalled uplink, and push back on congestion.
func (f *flowState) run(now float64) {
	p := f.p
	ids := f.sendIDs[:0]
	for id := range f.children {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if p.pool.Has(&p.children, id) || p.pool.Has(&p.fosters, id) {
			f.drain(id, f.children[id], now)
			continue
		}
		delete(f.children, id)
	}
	f.sendIDs = ids[:0]
	f.recoverRates()
	if cum, ok := f.tracker.CumAck(); ok && cum > f.lastAckedCum {
		f.sendAck(cum)
	}
	f.scanNacks(now)
	f.stallPull(now)
	f.pushback(now)
	for id, deadline := range f.expect {
		if now > deadline {
			delete(f.expect, id)
		}
	}
}

// child returns (creating on demand) the sender state for child c.
func (f *flowState) child(c NodeID) *childFlow {
	cf := f.children[c]
	if cf == nil {
		cf = &childFlow{
			bucket: flow.NewBucket(f.cfg.RateChunksPerS, flowBurst),
			acked:  -1,
		}
		f.children[c] = cf
	}
	return cf
}

func seqOf(m Message) (int64, bool) {
	if dc, ok := m.(DataChunk); ok {
		return dc.Seq, true
	}
	return 0, false
}

// admit decides whether one stream message may go to this child now,
// consuming a pacing token when it may. Chunks are additionally gated by
// the ack-clocked window; a window stalled longer than StallS fails open
// (the child may be gone or not flow-aware — parking the subtree would
// be worse than overrunning it).
func (f *flowState) admit(cf *childFlow, seq int64, isChunk bool, now float64) bool {
	if isChunk && cf.ackSeen && seq > cf.acked+flowWindow {
		if cf.stalledSince == 0 {
			cf.stalledSince = now
		}
		if now-cf.stalledSince <= f.cfg.StallS {
			return false
		}
		cf.acked = cf.lastSent
		cf.stalledSince = 0
		f.st.windowStalls.Add(1)
		if seq > cf.acked+flowWindow {
			return false
		}
	} else {
		cf.stalledSince = 0
	}
	return cf.bucket.Allow(now)
}

// noteSent updates sender bookkeeping after a successful transmission.
func (f *flowState) noteSent(cf *childFlow, m Message) {
	if dc, ok := m.(DataChunk); ok {
		f.p.stats.Forwarded++
		if !cf.ackSeen {
			cf.ackSeen = true
			cf.acked = dc.Seq - 1
		}
		if dc.Seq > cf.lastSent {
			cf.lastSent = dc.Seq
		}
		return
	}
	f.st.paritySent.Add(1)
}

// sendOne transmits m to child c, dropping the tree slot on transport
// failure (mirroring forwardChunk). Reports whether the child survives.
func (f *flowState) sendOne(c NodeID, cf *childFlow, m Message) bool {
	if !f.p.net.Send(f.p.id, c, m) {
		f.p.pool.Delete(&f.p.children, c)
		f.p.pool.Delete(&f.p.fosters, c)
		delete(f.children, c)
		return false
	}
	f.noteSent(cf, m)
	return true
}

// forward paces one stream message (chunk or parity) to every child and
// then every foster, each in id order. Children whose bucket and window
// admit it immediately are served through one SendFanout call (single
// encode on the wire); the rest queue for the next drain.
func (f *flowState) forward(m Message) {
	p := f.p
	now := p.net.Now()
	seq, isChunk := seqOf(m)
	ids := f.sendIDs[:0]
	p.pool.Each(&p.children, func(c NodeID, _ float64) {
		ids = f.routeOne(c, m, seq, isChunk, now, ids)
	})
	p.pool.Each(&p.fosters, func(c NodeID, _ float64) {
		if p.pool.Has(&p.children, c) {
			return
		}
		ids = f.routeOne(c, m, seq, isChunk, now, ids)
	})
	f.sendIDs = ids[:0]
	if len(ids) == 0 {
		return
	}
	p.fanoutFail = p.net.SendFanout(p.id, ids, m, p.fanoutFail[:0])
	for _, c := range p.fanoutFail {
		p.pool.Delete(&p.children, c)
		p.pool.Delete(&p.fosters, c)
		delete(f.children, c)
	}
	for _, c := range ids {
		if !slices.Contains(p.fanoutFail, c) {
			f.noteSent(f.child(c), m)
		}
	}
}

// routeOne queues m for child c or, when the child is idle and admitted,
// marks it for the immediate fan-out batch.
func (f *flowState) routeOne(c NodeID, m Message, seq int64, isChunk bool, now float64, ids []NodeID) []NodeID {
	cf := f.child(c)
	if len(cf.q) == 0 && f.admit(cf, seq, isChunk, now) {
		return append(ids, c)
	}
	if len(cf.q) >= flowQueueCap {
		cf.q = cf.q[1:]
		f.st.paceDrops.Add(1)
	}
	cf.q = append(cf.q, m)
	return ids
}

// drain sends as much of child c's backlog as pacing and window allow.
func (f *flowState) drain(c NodeID, cf *childFlow, now float64) {
	for len(cf.q) > 0 {
		m := cf.q[0]
		seq, isChunk := seqOf(m)
		if !f.admit(cf, seq, isChunk, now) {
			return
		}
		if !f.sendOne(c, cf, m) {
			return
		}
		cf.q[0] = nil
		cf.q = cf.q[1:]
	}
}

// recoverRates climbs throttled child rates back toward the base rate —
// the additive half of the per-edge AIMD.
func (f *flowState) recoverRates() {
	base := f.cfg.RateChunksPerS
	if base <= 0 {
		return
	}
	step := base * flowTickS / flowRecoverS
	for _, cf := range f.children {
		if r := cf.bucket.Rate(); r > 0 && r < base {
			r += step
			if r > base {
				r = base
			}
			cf.bucket.SetRate(r)
		}
	}
}

// fillStatus writes the flow-telemetry section of a StatusReport: the
// per-child sender state (queue depth, current pacing rate, window use,
// per-edge NACK/pushback totals) and the receiver-side uplink repair
// totals. ComposeStatus calls it on the peer's execution context, where
// the child maps are safe to walk.
func (f *flowState) fillStatus(r *StatusReport) {
	r.FlowOn = true
	r.FlowBaseRate = f.cfg.RateChunksPerS
	if n := len(f.children); n > 0 {
		ids := make([]NodeID, 0, n)
		for id := range f.children {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		r.ChildFlows = make([]ChildFlowStatus, 0, n)
		for _, id := range ids {
			cf := f.children[id]
			used := 0
			if cf.ackSeen && cf.lastSent > cf.acked {
				used = int(cf.lastSent - cf.acked)
			}
			r.ChildFlows = append(r.ChildFlows, ChildFlowStatus{
				ID:             id,
				QueueDepth:     len(cf.q),
				RateChunksPerS: cf.bucket.Rate(),
				WindowUsed:     used,
				Stalled:        cf.stalledSince > 0,
				Nacks:          cf.nacks,
				Pushbacks:      cf.pushes,
			})
		}
	}
	r.NacksSent = f.st.nacksSent.Load()
	r.StallPulls = f.st.stallPulls.Load()
	r.FECRepairs = f.st.fecRepairs.Load()
	r.Skipped = f.st.skipped.Load()
}

// --- receiver side ---

// noteChunkFrom records who the stream is arriving from; traffic from
// the parent resets the uplink-stall clock.
func (f *flowState) noteChunkFrom(from NodeID) {
	if from == f.p.parent {
		f.lastParentAt = f.p.net.Now()
	}
}

// expectingRepair reports whether chunks from this non-parent are
// solicited repair traffic (a NACK or stall pull was sent to it
// recently), which exempts it from stale-edge pruning.
func (f *flowState) expectingRepair(from NodeID) bool {
	deadline, ok := f.expect[from]
	return ok && f.p.net.Now() <= deadline
}

// onChunk is the receiver path for every fresh (deduped) chunk: ack and
// gap bookkeeping, retransmit cache, paced forwarding, FEC recovery.
func (f *flowState) onChunk(m DataChunk) {
	f.tracker.Add(m.Seq)
	delete(f.nacks, m.Seq)
	f.cache.Put(m.Seq, m.Payload)
	f.sinceAck++
	if f.sinceAck >= flowAckEvery {
		if cum, ok := f.tracker.CumAck(); ok {
			f.sendAck(cum)
		}
	}
	f.forward(m)
	if f.dec != nil {
		if rec, ok := f.dec.AddData(m.Seq, m.Payload); ok {
			f.st.fecRepairs.Add(1)
			f.p.handleChunk(None, DataChunk{Seq: rec.Seq, Payload: rec.Payload}, nil)
		}
	}
}

// onSourceChunk is the origination path: cache for NACK service, paced
// fan-out, and parity emission every FECGroup chunks.
func (f *flowState) onSourceChunk(m DataChunk) {
	f.cache.Put(m.Seq, m.Payload)
	f.forward(m)
	if f.enc != nil {
		if par, ok := f.enc.Add(m.Seq, m.Payload); ok {
			f.forward(Parity{Group: par.Group, K: par.K, XorLen: par.XorLen, Data: par.Data})
		}
	}
}

func (f *flowState) sendAck(cum int64) {
	p := f.p
	f.sinceAck = 0
	if p.parent == None || !p.connected {
		return
	}
	if p.net.Send(p.id, p.parent, DataAck{Seq: cum}) {
		f.lastAckedCum = cum
		f.st.acksSent.Add(1)
	}
}

func (f *flowState) onAck(from NodeID, m DataAck) {
	f.st.acksRecv.Add(1)
	cf := f.children[from]
	if cf == nil {
		return
	}
	if !cf.ackSeen || m.Seq > cf.acked {
		cf.ackSeen = true
		cf.acked = m.Seq
		cf.stalledSince = 0
		f.drain(from, cf, f.p.net.Now())
	}
}

// nackServeBudget bounds how many retransmits one DataNack triggers, so
// a bogus wide range cannot amplify into a flood.
const nackServeBudget = 64

func (f *flowState) onNack(from NodeID, m DataNack) {
	f.st.nacksRecv.Add(1)
	if cf := f.children[from]; cf != nil {
		cf.nacks++
	}
	budget := nackServeBudget
	for _, r := range m.Ranges {
		if r.Hi < r.Lo || r.Hi-r.Lo >= int64(4*flow.DefaultWindowBits) {
			continue
		}
		for seq := r.Lo; seq <= r.Hi && budget > 0; seq++ {
			pl, ok := f.cache.Get(seq)
			if !ok {
				continue
			}
			budget--
			f.st.retransServed.Add(1)
			if !f.p.net.Send(f.p.id, from, DataChunk{Seq: seq, Payload: pl}) {
				return
			}
		}
	}
}

func (f *flowState) onParity(from NodeID, m Parity) {
	f.st.parityRecv.Add(1)
	f.noteChunkFrom(from)
	if f.dec == nil {
		f.forward(m)
		return
	}
	rec, recovered, fresh := f.dec.AddParity(flow.Parity{
		Group: m.Group, K: m.K, XorLen: m.XorLen, Data: m.Data,
	})
	if fresh {
		f.forward(m)
	}
	if recovered {
		f.st.fecRepairs.Add(1)
		f.p.handleChunk(None, DataChunk{Seq: rec.Seq, Payload: rec.Payload}, nil)
	}
}

func (f *flowState) onPushback(from NodeID, m Pushback) {
	f.st.pushRecv.Add(1)
	cf := f.children[from]
	if cf == nil {
		return
	}
	cf.pushes++
	if f.cfg.RateChunksPerS <= 0 {
		return
	}
	floor := f.cfg.RateChunksPerS * flowMinRateFrac
	r := cf.bucket.Rate() / 2
	if r < floor {
		r = floor
	}
	cf.bucket.SetRate(r)
}

// scanNacks turns tracked gaps into NACKs: to the parent first, to the
// repair neighbor after flowNackRetries, written off after flowNackGiveUp (the
// tracker marks the seq seen so the cumulative point moves on).
func (f *flowState) scanNacks(now float64) {
	p := f.p
	f.nackScratch = f.tracker.Missing(f.nackScratch, 16)
	for seq := range f.nacks {
		// Seqs repaired out of band (FEC, pulls) or slid out of the
		// window leave stale entries behind; drop them.
		if f.tracker.Seen(seq) {
			delete(f.nacks, seq)
		}
	}
	if len(f.nackScratch) == 0 {
		return
	}
	var toParent, toRepair []SeqRange
	budget := nackServeBudget
	for _, r := range f.nackScratch {
		for seq := r.Lo; seq <= r.Hi && budget > 0; seq++ {
			ns := f.nacks[seq]
			if ns == nil {
				f.nacks[seq] = &nackState{nextAt: now + flowNackDelayS}
				continue
			}
			if now < ns.nextAt {
				continue
			}
			budget--
			ns.attempts++
			backoff := ns.attempts
			if backoff > 5 {
				backoff = 5
			}
			ns.nextAt = now + flowNackDelayS*float64(int64(1)<<uint(backoff))
			if ns.attempts > flowNackGiveUp {
				f.tracker.Add(seq)
				delete(f.nacks, seq)
				f.st.skipped.Add(1)
				continue
			}
			if ns.attempts <= flowNackRetries {
				toParent = appendSeq(toParent, seq)
			} else {
				toRepair = appendSeq(toRepair, seq)
			}
		}
	}
	if len(toParent) > 0 && p.parent != None {
		if p.net.Send(p.id, p.parent, DataNack{Ranges: toParent}) {
			f.st.nacksSent.Add(1)
		}
	}
	if len(toRepair) > 0 {
		if tgt := f.repairTarget(); tgt != None {
			f.expect[tgt] = now + 4*f.cfg.StallS
			if p.net.Send(p.id, tgt, DataNack{Ranges: toRepair}) {
				f.st.nacksSent.Add(1)
			}
		}
	}
}

// appendSeq grows a range list by one seq, merging contiguous runs.
func appendSeq(rs []SeqRange, seq int64) []SeqRange {
	if n := len(rs); n > 0 && rs[n-1].Hi == seq-1 {
		rs[n-1].Hi = seq
		return rs
	}
	return append(rs, SeqRange{Lo: seq, Hi: seq})
}

// stallPull is the dead-uplink escape: when the parent has delivered
// nothing for StallS, speculatively pull the next flowPullWidth sequences
// from the repair neighbor every tick until the parent resumes. Gap
// NACKs can't detect a fully dead link (silence produces no gaps), so
// this is what makes a killed uplink recover without tree re-join.
func (f *flowState) stallPull(now float64) {
	p := f.p
	if p.isSource || !p.connected || p.parent == None || f.lastParentAt == 0 {
		return
	}
	if now-f.lastParentAt <= f.cfg.StallS || now-f.lastPullAt < flowTickS {
		return
	}
	tgt := f.repairTarget()
	if tgt == None {
		return
	}
	cum, ok := f.tracker.CumAck()
	if !ok {
		return
	}
	f.lastPullAt = now
	f.expect[tgt] = now + 4*f.cfg.StallS
	if p.net.Send(p.id, tgt, DataNack{Ranges: []SeqRange{{Lo: cum + 1, Hi: cum + flowPullWidth}}}) {
		f.st.stallPulls.Add(1)
		f.st.nacksSent.Add(1)
	}
}

// repairTarget picks the secondary repair path: the best probed
// non-parent candidate, else the grandparent from the root path, else
// the source (which always caches the stream tail).
func (f *flowState) repairTarget() NodeID {
	p := f.p
	if c := f.repairCand; c != None && c != p.id && c != p.parent {
		return c
	}
	if gp := p.Grandparent(); gp != None && gp != p.id && gp != p.parent {
		return gp
	}
	if !p.isSource && p.parent != p.source && p.source != p.id {
		return p.source
	}
	return None
}

// pushback reports local congestion (deepest per-child backlog, pacing
// queue plus transport queue) to the parent when it passes the
// high-water mark.
func (f *flowState) pushback(now float64) {
	p := f.p
	if p.parent == None || !p.connected {
		return
	}
	if now-f.lastPushAt < 2*flowTickS {
		return
	}
	depth := 0
	for id, cf := range f.children {
		d := len(cf.q) + p.net.DataQueueDepth(id)
		if d > depth {
			depth = d
		}
	}
	if depth < flowPushbackHigh {
		return
	}
	f.lastPushAt = now
	if p.net.Send(p.id, p.parent, Pushback{Depth: depth}) {
		f.st.pushSent.Add(1)
	}
}
