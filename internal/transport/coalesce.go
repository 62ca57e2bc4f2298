package transport

import (
	"net"
	"sync"
	"time"

	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// frameBuf is one queued, already-encoded frame; at flush it becomes a
// datagram, with the frames packed behind it appended. Buffers cycle
// through a pool so the steady-state coalescer allocates nothing.
type frameBuf struct {
	b []byte
}

var frameBufPool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 1536)} },
}

// outPkt pairs an encoded datagram with its destination for one batched
// write; frames counts the frames packed into it.
type outPkt struct {
	addr   *net.UDPAddr
	fb     *frameBuf
	frames int
}

// bundleCap bounds a datagram that packs several frames: 1 452 bytes fit
// one Ethernet MTU under IPv6 (1 500 − 40 − 8) or IPv4 without
// fragmentation, and hold five 256-byte-payload chunk frames.
const bundleCap = 1452

// coalescer is the send-side half of the batched data plane: best-effort
// data frames destined for the wire are queued per destination and
// flushed together — by frame-count threshold or by the flush-interval
// timer, whichever fires first — through one sendmmsg call (or a tight
// write loop on platforms without it). At flush each destination's frames
// are packed, in order, into datagrams of at most bundleCap bytes (a
// larger frame goes alone), so the kernel handles one packet per child
// per flush where it would handle one per frame; frames for different
// destinations never share a datagram. Acked control frames never enter
// the coalescer: their retransmit timers assume the first transmission
// happens before the ack clock starts, so they go straight to the socket.
//
// Backpressure is drop-oldest per destination: when a destination's queue
// is at DestQueueCap the oldest queued frame is evicted (and counted),
// on the reasoning that for streaming data the newest frames are the
// valuable ones and a slow receiver should shed its stalest backlog.
type coalescer struct {
	t        *UDP
	maxBatch int
	flushInt time.Duration
	queueCap int

	mu      sync.Mutex
	queues  map[overlay.NodeID]*destQueue
	order   []overlay.NodeID // destinations with queued frames, arrival order
	pending int
	timer   *time.Timer
	armed   bool
	firstAt time.Time // first enqueue since the last flush
	closed  bool

	// flushMu serializes flushers (timer vs threshold vs shutdown) so the
	// packet scratch slice can be reused safely.
	flushMu sync.Mutex
	scratch []outPkt
}

type destQueue struct {
	addr   *net.UDPAddr
	frames []*frameBuf
}

func newCoalescer(t *UDP, cfg BatchConfig) *coalescer {
	c := &coalescer{
		t:        t,
		maxBatch: cfg.MaxBatch,
		flushInt: cfg.FlushInterval,
		queueCap: cfg.DestQueueCap,
		queues:   make(map[overlay.NodeID]*destQueue),
	}
	c.timer = time.AfterFunc(time.Hour, c.flush)
	c.timer.Stop()
	return c
}

// enqueueFrame encodes f and queues it for to. The loss-injection filter
// is consulted here (not at flush time) so drop accounting stays on the
// send path, matching the direct-write path.
func (c *coalescer) enqueueFrame(to overlay.NodeID, addr *net.UDPAddr, f wire.Frame) {
	c.t.mu.Lock()
	filter := c.t.sendFilter
	c.t.mu.Unlock()
	if filter != nil && filter(to, f, 0) {
		c.t.ctrs.DataDrops.Add(1)
		return
	}
	eb := wire.GetEncodeBuffer()
	b, err := eb.Encode(f)
	if err != nil {
		eb.Release()
		c.t.ctrs.DataDrops.Add(1)
		return
	}
	c.enqueueBytes(to, addr, b)
	eb.Release()
}

// enqueueBytes queues an already-encoded frame for to, retargeting the
// copy's To field — the fan-out fast path encodes once and calls this per
// child. b is copied; the caller keeps ownership.
func (c *coalescer) enqueueBytes(to overlay.NodeID, addr *net.UDPAddr, b []byte) {
	fb := frameBufPool.Get().(*frameBuf)
	fb.b = append(fb.b[:0], b...)
	wire.PatchTo(fb.b, to)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		frameBufPool.Put(fb)
		c.t.dp.queueDrops.Add(1)
		c.t.ctrs.DataDrops.Add(1)
		return
	}
	q := c.queues[to]
	if q == nil {
		q = &destQueue{}
		c.queues[to] = q
	}
	if len(q.frames) == 0 {
		c.order = append(c.order, to)
	}
	q.addr = addr
	if len(q.frames) >= c.queueCap {
		// Drop-oldest backpressure: evict the stalest queued frame for
		// this destination to make room.
		old := q.frames[0]
		copy(q.frames, q.frames[1:])
		q.frames = q.frames[:len(q.frames)-1]
		c.pending--
		frameBufPool.Put(old)
		c.t.dp.queueDrops.Add(1)
		c.t.ctrs.DataDrops.Add(1)
	}
	q.frames = append(q.frames, fb)
	if c.pending == 0 {
		c.firstAt = time.Now()
	}
	c.pending++
	full := c.pending >= c.maxBatch
	if !full && !c.armed {
		c.armed = true
		c.timer.Reset(c.flushInt)
	}
	c.mu.Unlock()
	if full {
		c.flush()
	}
}

// flush drains every destination queue and writes the batch. Runs on the
// flush timer goroutine, inline on the sender that filled the batch, and
// once more at shutdown.
func (c *coalescer) flush() {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()

	c.mu.Lock()
	if c.armed {
		c.timer.Stop()
		c.armed = false
	}
	if c.pending == 0 {
		c.mu.Unlock()
		return
	}
	pkts := c.scratch[:0]
	for _, to := range c.order {
		q := c.queues[to]
		pkts = bundle(pkts, q.addr, q.frames)
		q.frames = q.frames[:0]
	}
	c.order = c.order[:0]
	frames := c.pending
	c.pending = 0
	wait := time.Since(c.firstAt)
	c.mu.Unlock()

	c.t.writePackets(pkts)
	c.t.dp.flushes.Add(1)
	c.t.dp.flushedFrames.Add(int64(frames))
	c.t.dp.flushNanos.Add(int64(wait))
	for i := range pkts {
		frameBufPool.Put(pkts[i].fb)
		pkts[i].fb = nil
	}
	c.scratch = pkts[:0]
}

// bundle appends to pkts the datagrams that carry frames, one
// destination's queue, to addr: the frames in order, each appended to the
// datagram before it while that stays within bundleCap, else starting a
// new one. A frame appended to another goes back to the pool at once.
func bundle(pkts []outPkt, addr *net.UDPAddr, frames []*frameBuf) []outPkt {
	first := len(pkts)
	for _, fb := range frames {
		if k := len(pkts) - 1; k >= first && len(pkts[k].fb.b)+len(fb.b) <= bundleCap {
			pkts[k].fb.b = append(pkts[k].fb.b, fb.b...)
			pkts[k].frames++
			frameBufPool.Put(fb)
			continue
		}
		pkts = append(pkts, outPkt{addr: addr, fb: fb, frames: 1})
	}
	return pkts
}

// depth reports how many frames are queued for to right now.
func (c *coalescer) depth(to overlay.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queues[to]
	if q == nil {
		return 0
	}
	return len(q.frames)
}

// shutdown flushes whatever is queued and rejects further enqueues.
func (c *coalescer) shutdown() {
	c.flush()
	c.mu.Lock()
	c.closed = true
	c.timer.Stop()
	c.mu.Unlock()
}

// writePackets transmits one drained batch: chunks of up to MaxBatch
// datagrams per sendmmsg when the mmsg engine is active, else one write
// syscall per datagram (coalescing still bounds wakeups and preserves
// queueing semantics).
func (t *UDP) writePackets(pkts []outPkt) {
	if len(pkts) == 0 {
		return
	}
	if t.mmsg != nil {
		for len(pkts) > 0 {
			n := min(len(pkts), t.cfg.Batch.MaxBatch)
			frames := 0
			for _, p := range pkts[:n] {
				frames += p.frames
			}
			t.dp.sentDatagrams.Add(int64(n))
			t.dp.sentFrames.Add(int64(frames))
			calls, err := t.mmsg.writeBatch(pkts[:n])
			t.dp.sendSyscalls.Add(int64(calls))
			if err != nil {
				return // socket closed mid-flush; frames are best-effort
			}
			t.dp.noteBatch(int64(frames))
			pkts = pkts[n:]
		}
		return
	}
	for _, p := range pkts {
		t.dp.sendSyscalls.Add(1)
		t.dp.sentDatagrams.Add(1)
		t.dp.sentFrames.Add(int64(p.frames))
		t.conn.WriteToUDP(p.fb.b, p.addr)
	}
}
