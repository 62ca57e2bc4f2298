package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// UDP transport timing and sizes.
const (
	// retryBase is the first control-retransmit delay; each retry doubles
	// it.
	retryBase = 50 * time.Millisecond
	// retryAttempts is the total number of transmissions of one control
	// message; it is declared lost retryBase × (2^retryAttempts − 1) =
	// 3.15 s after the first.
	retryAttempts = 6
	// dedupeWindow is how many recent control seqs are remembered per
	// sender to suppress retransmitted duplicates.
	dedupeWindow = 512
	// resolveQueueCap bounds messages parked per unresolved destination.
	resolveQueueCap = 64
	// resolveInterval rate-limits ResolveFn calls per destination.
	resolveInterval = 250 * time.Millisecond
	// resolveTTL is how long a parked message may wait for an address
	// before it is dropped as undeliverable.
	resolveTTL = 3 * time.Second
)

// UDPConfig configures a UDP transport. It has no fields: the retransmit
// schedule is the constants retryBase and retryAttempts.
type UDPConfig struct{}

// UDP is the real-socket transport. One UDP socket carries any number of
// local peers; remote peers are reached through a node-id → address route
// table that fills in three ways: explicitly (SetRoute), implicitly (the
// source address of every received frame), and on demand through the
// ResolveFn callback (internal/live answers it with an address query to
// the session source).
//
// Reliability matches what the paper's PlanetLab deployment got from TCP
// control connections: every control frame carries a transport token
// (seq) and is retransmitted with exponential backoff until the matching
// ack arrives or the attempt budget is spent; receivers acknowledge and
// dedupe by token. Data chunks are sent once, best effort.
type UDP struct {
	conn *net.UDPConn

	mu       sync.Mutex
	handlers map[overlay.NodeID]Handler
	routes   map[overlay.NodeID]*net.UDPAddr
	pending  map[uint32]*inflight
	parked   map[overlay.NodeID]*parkedQueue
	recent   map[overlay.NodeID]*dedupe
	seq      uint32
	closed   bool

	// Hooks, installed through their setters (the receive loop reads them
	// concurrently).
	sessionHandler func(from *net.UDPAddr, f wire.Frame)
	resolveFn      func(id overlay.NodeID)
	sendFilter     func(to overlay.NodeID, f wire.Frame, attempt int) bool
	tracer         *obs.Tracer

	ctrs overlay.Counters
	// Reliability-path accounting, readable through Stats: the dedupe and
	// retransmit activity that overlay.Counters (shared with the lossless
	// simulator) has no slot for.
	retransmits atomic.Int64
	dedupeDrops atomic.Int64
	acksRecv    atomic.Int64
	wg          sync.WaitGroup

	// Batched data plane: the send-side coalescer and the platform mmsg
	// engine (nil where unsupported — the transport then falls back to one
	// syscall per datagram but keeps the coalescer's queueing semantics).
	co   *coalescer
	mmsg *mmsgIO
	dp   dataplane
}

// dataplane is the batched data path's accounting, all atomics so the
// receive loop, the coalescer and Send callers never contend.
type dataplane struct {
	sendSyscalls  atomic.Int64
	recvSyscalls  atomic.Int64
	sentFrames    atomic.Int64
	recvFrames    atomic.Int64
	sentDatagrams atomic.Int64
	recvDatagrams atomic.Int64
	flushes       atomic.Int64
	flushedFrames atomic.Int64
	queueDrops    atomic.Int64
	fanoutEncodes atomic.Int64
	fanoutFrames  atomic.Int64
	flushNanos    atomic.Int64
	maxBatch      atomic.Int64
}

// DataplaneStats is a snapshot of the batched data plane's accounting.
type DataplaneStats struct {
	// SendSyscalls / RecvSyscalls count socket write and read system
	// calls (a sendmmsg/recvmmsg moving N datagrams counts once).
	SendSyscalls int64
	RecvSyscalls int64
	// SentFrames / RecvFrames count the frames in the datagrams written
	// and read (a datagram's undecodable remainder reads as one frame).
	SentFrames int64
	RecvFrames int64
	// SentDatagrams / RecvDatagrams count the datagrams themselves; a
	// coalescer flush packs a destination's frames into few of them.
	SentDatagrams int64
	RecvDatagrams int64
	// Flushes counts coalescer flushes; FlushedFrames the data frames
	// they moved; FlushNanos the summed first-enqueue→flush latency.
	Flushes       int64
	FlushedFrames int64
	FlushNanos    int64
	// QueueDrops counts data frames enqueued after Close, which the
	// coalescer no longer sends.
	QueueDrops int64
	// FanoutEncodes counts single-encode fan-outs; FanoutFrames the
	// frames those fan-outs produced (the saving is the difference).
	FanoutEncodes int64
	FanoutFrames  int64
	// MaxBatch is the largest frame count one syscall has moved.
	MaxBatch int64
}

// Dataplane reads the data-plane counters once.
func (t *UDP) Dataplane() DataplaneStats {
	return DataplaneStats{
		SendSyscalls:  t.dp.sendSyscalls.Load(),
		RecvSyscalls:  t.dp.recvSyscalls.Load(),
		SentFrames:    t.dp.sentFrames.Load(),
		RecvFrames:    t.dp.recvFrames.Load(),
		SentDatagrams: t.dp.sentDatagrams.Load(),
		RecvDatagrams: t.dp.recvDatagrams.Load(),
		Flushes:       t.dp.flushes.Load(),
		FlushedFrames: t.dp.flushedFrames.Load(),
		FlushNanos:    t.dp.flushNanos.Load(),
		QueueDrops:    t.dp.queueDrops.Load(),
		FanoutEncodes: t.dp.fanoutEncodes.Load(),
		FanoutFrames:  t.dp.fanoutFrames.Load(),
		MaxBatch:      t.dp.maxBatch.Load(),
	}
}

// DataQueueDepth reports how many coalesced data frames are queued
// (encoded but unsent) toward to.
func (t *UDP) DataQueueDepth(to overlay.NodeID) int { return t.co.depth(to) }

// noteBatch records a send or receive syscall that moved n frames,
// keeping the high-water batch size.
func (d *dataplane) noteBatch(n int64) {
	for {
		old := d.maxBatch.Load()
		if old >= n || d.maxBatch.CompareAndSwap(old, n) {
			return
		}
	}
}

// UDPStats is a snapshot of the UDP reliability machinery's accounting.
type UDPStats struct {
	// Retransmits counts control-frame retransmissions (excluding each
	// frame's first transmission).
	Retransmits int64
	// DedupeDrops counts duplicate control frames suppressed by the
	// receive-side dedupe window.
	DedupeDrops int64
	// AcksReceived counts acknowledged control frames.
	AcksReceived int64
}

// Stats reads the reliability counters once.
func (t *UDP) Stats() UDPStats {
	return UDPStats{
		Retransmits:  t.retransmits.Load(),
		DedupeDrops:  t.dedupeDrops.Load(),
		AcksReceived: t.acksRecv.Load(),
	}
}

// SetTracer installs the protocol event tracer the transport emits its
// udp_retransmit / udp_dedupe_drop / udp_ack events through (nil
// disables).
func (t *UDP) SetTracer(tr *obs.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracer = tr
}

// SetSessionHandler installs the hook that receives non-message frames
// (Hello, Welcome, AddrQuery, AddrReply) together with the sender's socket
// address — the join-bootstrap tap for internal/live.
func (t *UDP) SetSessionHandler(h func(from *net.UDPAddr, f wire.Frame)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessionHandler = h
}

// SetResolveFn installs the address resolver: it is called (rate-limited)
// for destinations with no route while the message waits briefly for
// SetRoute. Without a resolver, sends to unknown destinations fail
// immediately.
func (t *UDP) SetResolveFn(fn func(id overlay.NodeID)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolveFn = fn
}

// SetSendFilter installs the loss-injection filter consulted on every
// outbound frame (return true to drop); attempt counts transmissions of
// that frame so far (0 = first try).
func (t *UDP) SetSendFilter(fn func(to overlay.NodeID, f wire.Frame, attempt int) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sendFilter = fn
}

// inflight is one unacknowledged control frame.
type inflight struct {
	frame    wire.Frame
	to       overlay.NodeID
	attempts int
	timer    *time.Timer
	sentAt   time.Time // first transmission, for ack latency
}

// parkedQueue holds messages awaiting address resolution for one
// destination.
type parkedQueue struct {
	items       []parkedItem
	lastResolve time.Time
}

type parkedItem struct {
	from overlay.NodeID
	m    overlay.Message
	at   time.Time
}

// dedupe remembers the last dedupeWindow (512) control seqs from one
// sender, as a set over values plus an eviction ring — membership is by
// value, not by ordered horizon, so the tracker is indifferent to the
// uint32 seq counter wrapping past ^uint32(0). The window only needs to
// outlast one frame's retransmit schedule (the last retry goes out
// ~1.6 s after the first transmission): 512 entries covers that with a wide
// margin even at data-plane control rates, while staying small enough to
// keep per-sender.
type dedupe struct {
	ring []uint32
	set  map[uint32]struct{}
	next int
}

func newDedupe() *dedupe {
	return &dedupe{ring: make([]uint32, dedupeWindow), set: make(map[uint32]struct{}, dedupeWindow)}
}

// seen records seq and reports whether it was already present.
func (d *dedupe) seen(seq uint32) bool {
	if _, ok := d.set[seq]; ok {
		return true
	}
	if len(d.set) >= dedupeWindow {
		delete(d.set, d.ring[d.next])
	}
	d.ring[d.next] = seq
	d.set[seq] = struct{}{}
	d.next = (d.next + 1) % dedupeWindow
	return false
}

// recvSlot is the size of one receive buffer: every legal datagram (one
// frame of a header plus at most wire.MaxPayload, or a bundle of at most
// bundleCap bytes) lands whole in one slot.
const recvSlot = wire.MaxPayload + 1024

// newMmsg builds the platform mmsg engine; a package variable so a test
// can force the portable fallback Linux CI otherwise never runs.
var newMmsg = newMmsgIO

// socketBuffer is the SO_RCVBUF/SO_SNDBUF request. The batched plane lands
// whole sendmmsg trains (maxBatch datagrams back to back) on the receiver, so
// the kernel-default ~208 KB receive buffer — sized for one-packet-at-a-time
// senders — overflows under bursts the one-syscall-per-packet path never
// produces. The kernel clamps the request to net.core.{r,w}mem_max.
const socketBuffer = 4 << 20

// NewUDP opens a UDP socket on listenAddr (e.g. "127.0.0.1:9000" or
// ":9000") and starts the receive loop. The UDPConfig argument is empty;
// it stays because the benchmark module's callers pass it.
func NewUDP(listenAddr string, _ UDPConfig) (*UDP, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", listenAddr, err)
	}
	// Best effort: an unprivileged process gets whatever the kernel caps
	// allow, which still beats the default.
	_ = conn.SetReadBuffer(socketBuffer)
	_ = conn.SetWriteBuffer(socketBuffer)
	t := &UDP{
		conn:     conn,
		handlers: make(map[overlay.NodeID]Handler),
		routes:   make(map[overlay.NodeID]*net.UDPAddr),
		pending:  make(map[uint32]*inflight),
		parked:   make(map[overlay.NodeID]*parkedQueue),
		recent:   make(map[overlay.NodeID]*dedupe),
	}
	t.mmsg = newMmsg(conn) // nil on unsupported platforms
	t.co = newCoalescer(t)
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// LocalAddr returns the bound socket address.
func (t *UDP) LocalAddr() string { return t.conn.LocalAddr().String() }

// Register attaches a handler for local node id.
func (t *UDP) Register(id overlay.NodeID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[id] = h
}

// Unregister detaches local node id.
func (t *UDP) Unregister(id overlay.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, id)
}

// Counters returns the shared traffic counters.
func (t *UDP) Counters() *overlay.Counters { return &t.ctrs }

// SetRoute maps node id to a transport address and flushes any messages
// parked for it.
func (t *UDP) SetRoute(id overlay.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: route %d → %q: %w", id, addr, err)
	}
	t.learnRoute(id, ua)
	return nil
}

// learnRoute records addr as the route to id and re-delivers, outside the
// lock, whatever was parked for it. Besides SetRoute it runs on the source
// address of every received frame (cheap NAT-free implicit routing: every
// frame teaches the receiver where its peer lives), so explicit entries
// are refreshed too — the latest observation wins.
func (t *UDP) learnRoute(id overlay.NodeID, addr *net.UDPAddr) {
	if id == overlay.None {
		return
	}
	t.mu.Lock()
	t.routes[id] = addr
	pq := t.parked[id]
	delete(t.parked, id)
	t.mu.Unlock()
	if pq != nil {
		for _, it := range pq.items {
			t.deliver(it.from, id, it.m)
		}
	}
}

// Send transmits m from → to. Control messages are retried until
// acknowledged; data chunks go out once. A destination with no route is
// parked briefly when a resolver is installed, otherwise the send fails.
func (t *UDP) Send(from, to overlay.NodeID, m overlay.Message) bool {
	if overlay.IsControl(m) {
		t.ctrs.Ctrl.Add(1)
	} else {
		t.ctrs.Data.Add(1)
	}
	return t.deliver(from, to, m)
}

// deliver is the routed, reliability-aware transmit path, shared by Send
// and the parked-message flush (which must not re-count the message).
func (t *UDP) deliver(from, to overlay.NodeID, m overlay.Message) bool {
	ctrl := overlay.IsControl(m)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	addr, ok := t.routes[to]
	if !ok {
		if t.resolveFn == nil {
			t.ctrs.Undeliver.Add(1)
			t.mu.Unlock()
			return false
		}
		t.parkLocked(from, to, m)
		t.mu.Unlock()
		return true
	}
	f := wire.Frame{Kind: wire.KindMsg, From: from, To: to, Msg: m}
	if !ctrl {
		filter := t.sendFilter
		t.mu.Unlock()
		// Acks and nacks are best-effort like chunks but clock the flow
		// window, so they skip the coalescing delay and go straight to
		// the socket.
		if overlay.IsStreamData(m) {
			t.enqueue(f, []route{{to, addr}}, filter)
		} else {
			t.write(to, addr, f, 0)
		}
		return true
	}
	t.seq++
	f.Seq = t.seq
	inf := &inflight{frame: f, to: to, sentAt: time.Now()}
	t.pending[f.Seq] = inf
	inf.timer = time.AfterFunc(retryBase, func() { t.retry(f.Seq, addr) })
	t.mu.Unlock()
	t.write(to, addr, f, 0)
	return true
}

// parkLocked queues m for destination to until a route appears, and pokes
// the resolver (rate-limited). Caller holds t.mu.
func (t *UDP) parkLocked(from, to overlay.NodeID, m overlay.Message) {
	pq := t.parked[to]
	if pq == nil {
		pq = &parkedQueue{}
		t.parked[to] = pq
	}
	now := time.Now()
	// Expire stale entries and enforce the cap.
	kept := pq.items[:0]
	for _, it := range pq.items {
		if now.Sub(it.at) < resolveTTL {
			kept = append(kept, it)
		} else {
			t.ctrs.Undeliver.Add(1)
		}
	}
	pq.items = kept
	if len(pq.items) >= resolveQueueCap {
		t.ctrs.Undeliver.Add(1)
		return
	}
	pq.items = append(pq.items, parkedItem{from: from, m: m, at: now})
	if now.Sub(pq.lastResolve) >= resolveInterval {
		pq.lastResolve = now
		go t.resolveFn(to)
	}
}

// retry retransmits the pending control frame with doubled backoff, or
// gives up after the attempt budget and counts a control drop.
func (t *UDP) retry(seq uint32, addr *net.UDPAddr) {
	t.mu.Lock()
	inf, ok := t.pending[seq]
	if !ok || t.closed {
		t.mu.Unlock()
		return
	}
	inf.attempts++
	if inf.attempts >= retryAttempts {
		delete(t.pending, seq)
		t.mu.Unlock()
		t.ctrs.CtrlDrops.Add(1)
		return
	}
	// Use the latest known route: the peer may have been learned at a new
	// address since the first transmission.
	if cur, ok := t.routes[inf.to]; ok {
		addr = cur
	}
	delay := retryBase << uint(inf.attempts)
	inf.timer = time.AfterFunc(delay, func() { t.retry(seq, addr) })
	f := inf.frame
	attempt := inf.attempts
	tr := t.tracer
	t.mu.Unlock()
	t.retransmits.Add(1)
	tr.Emit(obs.EvUDPRetransmit, obs.Event{Target: int64(inf.to), Step: attempt})
	t.write(inf.to, addr, f, attempt)
}

// write transmits one frame as a datagram of its own, honoring the
// loss-injection filter.
func (t *UDP) write(to overlay.NodeID, addr *net.UDPAddr, f wire.Frame, attempt int) {
	t.mu.Lock()
	filter := t.sendFilter
	t.mu.Unlock()
	data := f.Kind == wire.KindMsg && !overlay.IsControl(f.Msg)
	if filter != nil && filter(to, f, attempt) {
		if data {
			t.ctrs.DataDrops.Add(1)
		}
		return
	}
	if encoded, _ := t.writeFrame(addr, f); !encoded {
		// Nothing in the overlay vocabulary fails to encode; treat as a
		// drop rather than crash on a protocol bug.
		if data {
			t.ctrs.DataDrops.Add(1)
		} else {
			t.ctrs.CtrlDrops.Add(1)
		}
	}
}

// SendFrame transmits a session frame (bootstrap traffic) to an explicit
// socket address, outside the node-id routing and reliability machinery.
func (t *UDP) SendFrame(addr *net.UDPAddr, f wire.Frame) error {
	_, err := t.writeFrame(addr, f)
	return err
}

// writeFrame encodes f and writes it to addr as a datagram of its own. It
// reports whether f encoded (a frame that does not is not written) and
// the encode or write error.
func (t *UDP) writeFrame(addr *net.UDPAddr, f wire.Frame) (encoded bool, err error) {
	eb := wire.GetEncodeBuffer()
	defer eb.Release()
	b, err := eb.Encode(f)
	if err != nil {
		return false, err
	}
	t.dp.sendSyscalls.Add(1)
	t.dp.sentDatagrams.Add(1)
	t.dp.sentFrames.Add(1)
	_, err = t.conn.WriteToUDP(b, addr)
	return true, err
}

// readLoop receives, decodes and dispatches frames until the socket
// closes. With the mmsg engine active it drains up to maxBatch datagrams
// per recvmmsg syscall into a receive ring borrowed from the process-wide
// stock (batch_linux.go) and decodes them all before it dispatches any, so
// the ring goes back to the stock, for any readable socket to reuse, while
// the handlers run; otherwise it reads one datagram per syscall into the
// loop's own buffer. Either way the bytes are overwritten by a later read
// — wire.DecodeFrame copies everything a handler may retain (DataChunk
// payloads, strings), so reuse is invisible above the codec.
func (t *UDP) readLoop() {
	defer t.wg.Done()
	if t.mmsg != nil {
		for {
			got, datagrams, err := t.mmsg.readBatch()
			if err != nil {
				return // socket closed
			}
			if datagrams > 0 {
				t.dispatchRead(datagrams, got)
			}
		}
	}
	buf := make([]byte, recvSlot)
	var got []received
	for {
		n, raddr, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		got = decode(got[:0], buf[:n], raddr)
		t.dispatchRead(1, got)
	}
}

// dispatchRead counts one read syscall and the datagrams it brought, decoded
// into got, and dispatches got's frames in order.
func (t *UDP) dispatchRead(datagrams int, got []received) {
	t.dp.recvSyscalls.Add(1)
	t.dp.recvDatagrams.Add(int64(datagrams))
	t.dp.recvFrames.Add(int64(len(got)))
	t.dp.noteBatch(int64(len(got)))
	for i := range got {
		t.dispatch(got[i])
		got[i] = received{} // keep no frame alive while the next read waits
	}
}

// received is one frame of a datagram, or the error that kept the rest of
// the datagram from decoding, and the sender's address.
type received struct {
	f    wire.Frame
	err  error
	from *net.UDPAddr
}

// decode appends to got the frames of datagram b from the sender at from,
// in order; if one does not decode, the frames before it are appended and
// then its error, and the rest of the datagram is dropped. The frames
// share no bytes with b, so b may be overwritten as soon as decode
// returns.
func decode(got []received, b []byte, from *net.UDPAddr) []received {
	_, err := wire.DecodeDatagram(b, func(f wire.Frame) {
		got = append(got, received{f: f, from: from})
	})
	if err != nil {
		got = append(got, received{err: err, from: from})
	}
	return got
}

// dispatch hands one received frame to the reliability machinery, the
// registered handler or the session hook. A malformed datagram's
// undecodable remainder is counted once and dropped — wire.DecodeFrame
// guarantees it cannot do anything worse.
func (t *UDP) dispatch(r received) {
	f, raddr := r.f, r.from
	if r.err != nil {
		t.ctrs.Undeliver.Add(1)
		return
	}
	switch f.Kind {
	case wire.KindMsg:
		t.handleMsg(f, raddr)
	case wire.KindAck:
		t.mu.Lock()
		inf, ok := t.pending[f.Seq]
		if ok {
			inf.timer.Stop()
			delete(t.pending, f.Seq)
		}
		tr := t.tracer
		t.mu.Unlock()
		if ok {
			t.acksRecv.Add(1)
			tr.Emit(obs.EvUDPAck, obs.Event{
				Target: int64(inf.to),
				Step:   inf.attempts + 1,
				Value:  float64(time.Since(inf.sentAt)) / float64(time.Millisecond),
			})
		}
	default:
		t.mu.Lock()
		h := t.sessionHandler
		t.mu.Unlock()
		if h != nil {
			h(raddr, f)
		}
	}
}

// handleMsg acks, dedupes and dispatches one overlay message frame.
func (t *UDP) handleMsg(f wire.Frame, raddr *net.UDPAddr) {
	t.learnRoute(f.From, raddr)
	ctrl := overlay.IsControl(f.Msg)
	if ctrl {
		// Ack first, even for duplicates: the original ack may be the
		// thing that got lost.
		t.SendFrame(raddr, wire.Frame{Kind: wire.KindAck, From: f.To, To: f.From, Seq: f.Seq})
	}
	t.mu.Lock()
	if ctrl {
		d := t.recent[f.From]
		if d == nil {
			d = newDedupe()
			t.recent[f.From] = d
		}
		if d.seen(f.Seq) {
			tr := t.tracer
			t.mu.Unlock()
			t.dedupeDrops.Add(1)
			tr.Emit(obs.EvUDPDedupeDrop, obs.Event{Target: int64(f.From)})
			return
		}
	}
	h, ok := t.handlers[f.To]
	t.mu.Unlock()
	if !ok {
		t.ctrs.Undeliver.Add(1)
		return
	}
	h(f.From, f.Msg)
}

// Close shuts the socket down and cancels every pending retransmission.
// Coalesced data frames still queued are flushed first, so a graceful
// shutdown does not eat the tail of the stream.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for seq, inf := range t.pending {
		inf.timer.Stop()
		delete(t.pending, seq)
	}
	t.mu.Unlock()
	t.co.shutdown()
	err := t.conn.Close()
	t.wg.Wait()
	if t.mmsg != nil {
		t.mmsg.close()
	}
	return err
}

// SendBatch delivers one message to many destinations. Data chunks take
// the fan-out fast path: the frame is encoded once and the bytes are
// retargeted per child on their way into the coalescer. Control messages
// keep their per-destination reliability machinery (each needs its own
// retransmit token), so they fall back to sequential Sends. Destinations
// that fail the way Send would return false are appended to failed.
func (t *UDP) SendBatch(from overlay.NodeID, tos []overlay.NodeID, m overlay.Message, failed []overlay.NodeID) []overlay.NodeID {
	if overlay.IsControl(m) {
		for _, to := range tos {
			if !t.Send(from, to, m) {
				failed = append(failed, to)
			}
		}
		return failed
	}
	t.ctrs.Data.Add(int64(len(tos)))
	t.mu.Lock()
	filter := t.sendFilter
	if t.closed {
		t.mu.Unlock()
		return append(failed, tos...)
	}
	// Resolve all routes under one lock acquisition; park the unknowns
	// exactly as a sequential Send would. Up to len(buf) destinations
	// resolve into stack memory, so a forward to a lone child costs no
	// more here than Send.
	var buf [16]route
	routes := buf[:0]
	for _, to := range tos {
		addr, ok := t.routes[to]
		if !ok {
			if t.resolveFn == nil {
				t.ctrs.Undeliver.Add(1)
				failed = append(failed, to)
				continue
			}
			t.parkLocked(from, to, m)
			continue
		}
		routes = append(routes, route{to, addr})
	}
	t.mu.Unlock()
	t.dp.fanoutEncodes.Add(1)
	t.dp.fanoutFrames.Add(int64(t.enqueue(wire.Frame{Kind: wire.KindMsg, From: from, To: overlay.None, Msg: m}, routes, filter)))
	return failed
}

// route is one destination and the socket address it is reached at.
type route struct {
	to   overlay.NodeID
	addr *net.UDPAddr
}

// enqueue encodes stream-data frame f once and queues a copy for each
// destination in dsts, in order, into the coalescer, each retargeted to
// its destination. The loss filter, if any, is asked once per copy, and a
// copy it drops is counted and not queued. It returns how many copies it
// queued.
func (t *UDP) enqueue(f wire.Frame, dsts []route, filter func(overlay.NodeID, wire.Frame, int) bool) int {
	eb := wire.GetEncodeBuffer()
	defer eb.Release()
	b, err := eb.Encode(f)
	if err != nil {
		t.ctrs.DataDrops.Add(int64(len(dsts)))
		return 0
	}
	queued := 0
	for _, d := range dsts {
		if filter != nil {
			f.To = d.to
			if filter(d.to, f, 0) {
				t.ctrs.DataDrops.Add(1)
				continue
			}
		}
		queued++
		t.co.enqueue(d.to, d.addr, b)
	}
	return queued
}
