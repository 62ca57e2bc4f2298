package transport

import (
	"net"
	"sync"
	"time"

	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// The batched data plane's fixed sizes.
const (
	// maxBatch is how many queued frames trigger a flush, and how many
	// datagrams one sendmmsg or recvmmsg call moves at most.
	maxBatch = 32
	// flushInterval bounds how long a queued data frame may wait before
	// the flush timer puts it on the wire.
	flushInterval = 500 * time.Microsecond
	// bundleCap bounds a datagram that packs several frames: 1 452 bytes
	// fit one Ethernet MTU under IPv6 (1 500 − 40 − 8) or IPv4 without
	// fragmentation, and hold five 256-byte-payload chunk frames.
	bundleCap = 1452
)

// dgramBuf holds one datagram under construction. Buffers cycle through
// a pool so the steady-state coalescer allocates nothing.
type dgramBuf struct {
	b []byte
}

var dgramPool = sync.Pool{
	New: func() any { return &dgramBuf{b: make([]byte, 0, 1536)} },
}

// outPkt is one datagram and its destination, ready for a batched write;
// frames counts the frames packed into it.
type outPkt struct {
	addr   *net.UDPAddr
	buf    *dgramBuf
	frames int
}

// coalescer is the send-side half of the batched data plane: stream data
// frames bound for the wire are packed into per-destination datagrams as
// they arrive and flushed together — at maxBatch queued frames or by the
// flushInterval timer, whichever comes first — through one sendmmsg call
// (or a tight write loop on platforms without it). A frame is appended to
// its destination's open datagram while that stays within bundleCap, and
// otherwise opens a new one (a larger frame goes alone), so the kernel
// handles one packet per child per flush where it would handle one per
// frame; frames for different destinations never share a datagram. Acked
// control frames never enter the coalescer: their retransmit timers assume
// the first transmission happens before the ack clock starts, so they go
// straight to the socket.
//
// The flush threshold is the queue's bound: a sender that fills the batch
// flushes it before returning, so at most maxBatch frames plus one per
// concurrent sender are ever queued. Shedding load is the flow layer's
// job (its pacing queue), not the transport's.
type coalescer struct {
	t        *UDP
	flushInt time.Duration // flushInterval; tests lengthen it

	mu      sync.Mutex
	queues  map[overlay.NodeID]*destQueue
	order   []overlay.NodeID // destinations with queued frames, arrival order
	pending int              // queued frames
	timer   *time.Timer
	armed   bool
	firstAt time.Time // first enqueue since the last flush
	closed  bool

	// flushMu serializes flushers (timer vs threshold vs shutdown) so the
	// packet scratch slice can be reused safely.
	flushMu sync.Mutex
	scratch []outPkt
}

// destQueue is one destination's datagrams since the last flush, the
// last of them open to further frames.
type destQueue struct {
	addr   *net.UDPAddr
	dgrams []outPkt
}

func newCoalescer(t *UDP) *coalescer {
	c := &coalescer{
		t:        t,
		flushInt: flushInterval,
		queues:   make(map[overlay.NodeID]*destQueue),
	}
	c.timer = time.AfterFunc(time.Hour, c.flush)
	c.timer.Stop()
	return c
}

// enqueue appends encoded frame b to to's open datagram, retargeting the
// copy's To field — the fan-out path encodes once and calls this per
// child. b is copied; the caller keeps ownership.
func (c *coalescer) enqueue(to overlay.NodeID, addr *net.UDPAddr, b []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.t.dp.queueDrops.Add(1)
		c.t.ctrs.DataDrops.Add(1)
		return
	}
	q := c.queues[to]
	if q == nil {
		q = &destQueue{}
		c.queues[to] = q
	}
	if len(q.dgrams) == 0 {
		c.order = append(c.order, to)
	}
	q.addr = addr
	k := len(q.dgrams) - 1
	if k < 0 || len(q.dgrams[k].buf.b)+len(b) > bundleCap {
		buf := dgramPool.Get().(*dgramBuf)
		buf.b = buf.b[:0]
		q.dgrams = append(q.dgrams, outPkt{buf: buf})
		k++
	}
	p := &q.dgrams[k]
	at := len(p.buf.b)
	p.buf.b = append(p.buf.b, b...)
	wire.PatchTo(p.buf.b[at:], to)
	p.frames++
	if c.pending == 0 {
		c.firstAt = time.Now()
	}
	c.pending++
	full := c.pending >= maxBatch
	if !full && !c.armed {
		c.armed = true
		c.timer.Reset(c.flushInt)
	}
	c.mu.Unlock()
	if full {
		c.flush()
	}
}

// flush hands every destination's datagrams to the socket. Runs on the
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
		for _, p := range q.dgrams {
			p.addr = q.addr
			pkts = append(pkts, p)
		}
		clear(q.dgrams)
		q.dgrams = q.dgrams[:0]
	}
	c.order = c.order[:0]
	frames := c.pending
	c.pending = 0
	wait := time.Since(c.firstAt)
	c.mu.Unlock()

	c.t.writePackets(pkts, frames)
	c.t.dp.flushes.Add(1)
	c.t.dp.flushedFrames.Add(int64(frames))
	c.t.dp.flushNanos.Add(int64(wait))
	for i := range pkts {
		dgramPool.Put(pkts[i].buf)
	}
	clear(pkts)
	c.scratch = pkts[:0]
}

// depth reports how many frames are queued for to right now.
func (c *coalescer) depth(to overlay.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	if q := c.queues[to]; q != nil {
		for _, p := range q.dgrams {
			n += p.frames
		}
	}
	return n
}

// shutdown flushes whatever is queued and rejects further enqueues.
func (c *coalescer) shutdown() {
	c.flush()
	c.mu.Lock()
	c.closed = true
	c.timer.Stop()
	c.mu.Unlock()
}

// writePackets transmits one flush's datagrams, which carry frames
// frames: up to maxBatch datagrams per sendmmsg when the mmsg engine is
// active, else one write syscall per datagram.
func (t *UDP) writePackets(pkts []outPkt, frames int) {
	t.dp.sentDatagrams.Add(int64(len(pkts)))
	t.dp.sentFrames.Add(int64(frames))
	calls := 0
	if t.mmsg == nil {
		for _, p := range pkts {
			t.conn.WriteToUDP(p.buf.b, p.addr)
		}
		calls = len(pkts)
	} else {
		for len(pkts) > 0 {
			n := min(len(pkts), maxBatch)
			k, err := t.mmsg.writeBatch(pkts[:n])
			calls += k
			if err != nil {
				break // socket closed mid-flush; frames are best-effort
			}
			sent := 0
			for _, p := range pkts[:n] {
				sent += p.frames
			}
			t.dp.noteBatch(int64(sent))
			pkts = pkts[n:]
		}
	}
	t.dp.sendSyscalls.Add(int64(calls))
}
