package transport

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// TestUDPBatchedDataDelivery pushes a burst of data chunks through the
// default batched path and checks both correctness (everything arrives,
// in order) and that batching actually did its job: far fewer send
// syscalls than frames when the mmsg engine is active.
func TestUDPBatchedDataDelivery(t *testing.T) {
	// A long flush interval keeps the test deterministic: only the
	// maxBatch threshold flushes mid-burst, plus one trailing timer
	// flush for the remainder.
	a, b := newUDPPair(t)
	setFlushInterval(a, 50*time.Millisecond)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		if !a.Send(1, 2, overlay.DataChunk{Seq: int64(i)}) {
			t.Fatalf("send %d failed", i)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return c.count() == n }) {
		t.Fatalf("delivered %d of %d", c.count(), n)
	}
	for i, m := range c.snapshot() {
		if m.(overlay.DataChunk).Seq != int64(i) {
			t.Fatalf("out of order at %d: %v", i, m)
		}
	}

	if got := a.Counters().Data.Load(); got != n {
		t.Fatalf("data counter = %d, want %d", got, n)
	}
	dp := a.Dataplane()
	if dp.SentFrames != n {
		t.Fatalf("SentFrames = %d, want %d", dp.SentFrames, n)
	}
	if dp.FlushedFrames != n {
		t.Fatalf("FlushedFrames = %d, want %d", dp.FlushedFrames, n)
	}
	if dp.Flushes == 0 {
		t.Fatal("no coalescer flushes recorded")
	}
	if a.mmsg != nil {
		// 200 frames at maxBatch 32 is 7 batches; allow slack for an
		// early timer fire but demand a real reduction.
		if dp.SendSyscalls >= n/2 {
			t.Fatalf("SendSyscalls = %d for %d frames; batching ineffective", dp.SendSyscalls, n)
		}
		if dp.MaxBatch < 2 {
			t.Fatalf("MaxBatch = %d, want >= 2", dp.MaxBatch)
		}
	}
	rdp := b.Dataplane()
	if rdp.RecvFrames != n {
		t.Fatalf("RecvFrames = %d, want %d", rdp.RecvFrames, n)
	}
	if b.mmsg != nil && rdp.RecvSyscalls > rdp.RecvFrames {
		t.Fatalf("RecvSyscalls = %d > RecvFrames = %d", rdp.RecvSyscalls, rdp.RecvFrames)
	}
}

// TestUDPPayloadStableAcrossReads is the receive-buffer aliasing guard: a
// handler that retains DataChunk.Payload past its own return must see
// stable bytes even though the batched receive ring reuses its buffers
// for every subsequent datagram. The codec guarantees this by copying
// payloads out of the read buffer at decode time.
func TestUDPPayloadStableAcrossReads(t *testing.T) {
	a, b := newUDPPair(t)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	first := bytes.Repeat([]byte{0xA5}, 512)
	if !a.Send(1, 2, overlay.DataChunk{Seq: 0, Payload: first}) {
		t.Fatal("send failed")
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 1 }) {
		t.Fatal("first chunk not delivered")
	}
	retained := c.snapshot()[0].(overlay.DataChunk).Payload

	// Hammer the same ring buffers with different bytes.
	const n = 100
	for i := 1; i <= n; i++ {
		pl := bytes.Repeat([]byte{byte(i)}, 512)
		if !a.Send(1, 2, overlay.DataChunk{Seq: int64(i), Payload: pl}) {
			t.Fatalf("send %d failed", i)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return c.count() == n+1 }) {
		t.Fatalf("delivered %d of %d", c.count(), n+1)
	}
	if !bytes.Equal(retained, first) {
		t.Fatal("retained payload mutated by later reads (receive-buffer aliasing)")
	}
}

// TestUDPSendBatchFanout exercises the encode-once fan-out fast path:
// one SendBatch call reaches every routed destination and reports the
// unroutable one, with exactly one encode on the books.
func TestUDPSendBatchFanout(t *testing.T) {
	a, b := newUDPPair(t)
	c3, err := NewUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c3.Close() })

	var cb, cc collector
	b.Register(2, cb.handler())
	c3.Register(3, cc.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SetRoute(3, c3.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	payload := []byte("fanout-payload")
	failed := a.SendBatch(1, []overlay.NodeID{2, 3, 99}, overlay.DataChunk{Seq: 7, Payload: payload}, nil)
	if len(failed) != 1 || failed[0] != 99 {
		t.Fatalf("failed = %v, want [99]", failed)
	}
	ok := waitFor(t, 2*time.Second, func() bool { return cb.count() == 1 && cc.count() == 1 })
	if !ok {
		t.Fatalf("fanout delivered %d/%d of 1/1", cb.count(), cc.count())
	}
	for _, col := range []*collector{&cb, &cc} {
		got := col.snapshot()[0].(overlay.DataChunk)
		if got.Seq != 7 || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("fanout chunk = %+v", got)
		}
	}

	dp := a.Dataplane()
	if dp.FanoutEncodes != 1 {
		t.Fatalf("FanoutEncodes = %d, want 1", dp.FanoutEncodes)
	}
	if dp.FanoutFrames != 2 {
		t.Fatalf("FanoutFrames = %d, want 2", dp.FanoutFrames)
	}
	if got := a.Counters().Undeliver.Load(); got != 1 {
		t.Fatalf("Undeliver = %d, want 1", got)
	}
}

// TestTransportDropAndFanoutParity runs one scenario — queue a burst for
// one destination, then fan one chunk out to two known and one unknown
// destination — and pins the exact counters it must land in: fan-out
// accounting and undeliverable reporting, read through DataplaneStats and
// Counters, with nothing dropped. DataQueueDepth, the flow controller's
// congestion signal, must read the burst while it is queued and drain to
// zero.
func TestTransportDropAndFanoutParity(t *testing.T) {
	const burst = 10
	type parityCounters struct {
		QueueDrops, FanoutEncodes, FanoutFrames int64
		DataDrops, Undeliver                    int64
	}
	want := parityCounters{
		FanoutEncodes: 1,
		FanoutFrames:  2, // the unknown destination never enqueues
		Undeliver:     1,
	}

	t.Run("udp", func(t *testing.T) {
		a, b := newUDPPair(t)
		setFlushInterval(a, 80*time.Millisecond) // the burst is under maxBatch: no threshold flush
		var c2, c3 collector
		b.Register(2, c2.handler())
		b.Register(3, c3.handler())
		for _, id := range []overlay.NodeID{2, 3} {
			if err := a.SetRoute(id, b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}

		for i := 0; i < burst; i++ {
			if !a.Send(1, 2, overlay.DataChunk{Seq: int64(i)}) {
				t.Fatalf("send %d failed", i)
			}
		}
		// The burst sits in the coalescer until the 80ms timer.
		if d := a.DataQueueDepth(2); d != burst {
			t.Fatalf("DataQueueDepth mid-burst = %d, want %d", d, burst)
		}
		if !waitFor(t, 2*time.Second, func() bool { return c2.count() == burst }) {
			t.Fatalf("delivered %d, want %d", c2.count(), burst)
		}

		failed := a.SendBatch(1, []overlay.NodeID{2, 3, 99}, overlay.DataChunk{Seq: 100}, nil)
		if len(failed) != 1 || failed[0] != 99 {
			t.Fatalf("failed = %v, want [99]", failed)
		}
		if !waitFor(t, 2*time.Second, func() bool { return c2.count() == burst+1 && c3.count() == 1 }) {
			t.Fatalf("fanout delivered %d/%d", c2.count(), c3.count())
		}
		if !waitFor(t, 2*time.Second, func() bool { return a.DataQueueDepth(2) == 0 }) {
			t.Fatalf("DataQueueDepth did not drain: %d", a.DataQueueDepth(2))
		}
		dp := a.Dataplane()
		got := parityCounters{
			QueueDrops:    dp.QueueDrops,
			FanoutEncodes: dp.FanoutEncodes,
			FanoutFrames:  dp.FanoutFrames,
			DataDrops:     a.Counters().DataDrops.Load(),
			Undeliver:     a.Counters().Undeliver.Load(),
		}
		if got != want {
			t.Fatalf("udp counters = %+v, want %+v", got, want)
		}
	})
}

// TestTransportAckNackNeverEvicted pins that DataAck and DataNack frames,
// which carry the repair signal itself, skip the coalescer: sent after
// chunks that are still queued, they arrive first.
func TestTransportAckNackNeverEvicted(t *testing.T) {
	a, b := newUDPPair(t)
	setFlushInterval(a, time.Hour)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	const chunks = 6
	for i := 0; i < chunks; i++ {
		a.Send(1, 2, overlay.DataChunk{Seq: int64(i)})
	}
	a.Send(1, 2, overlay.DataAck{Seq: 7})
	a.Send(1, 2, overlay.DataNack{Ranges: []overlay.SeqRange{{Lo: 1, Hi: 3}}})
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 2 }) {
		t.Fatalf("delivered %d, want the ack and the nack", c.count())
	}
	if d := a.DataQueueDepth(2); d != chunks {
		t.Fatalf("DataQueueDepth = %d, want the %d chunks still queued", d, chunks)
	}
	a.co.flush()

	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 2+chunks }) {
		t.Fatalf("delivered %d, want %d", c.count(), 2+chunks)
	}
	msgs := c.snapshot()
	if _, ok := msgs[0].(overlay.DataAck); !ok {
		t.Fatalf("first delivery = %T, want DataAck", msgs[0])
	}
	if _, ok := msgs[1].(overlay.DataNack); !ok {
		t.Fatalf("second delivery = %T, want DataNack", msgs[1])
	}
	for i, m := range msgs[2:] {
		if m.(overlay.DataChunk).Seq != int64(i) {
			t.Fatalf("chunk %d = %v, want seq %d", i, m, i)
		}
	}
}

// TestUDPSendBatchOrdering interleaves SendBatch with plain Sends to one
// destination and checks it receives exactly the order of the equivalent
// sequential sends.
func TestUDPSendBatchOrdering(t *testing.T) {
	a, b := newUDPPair(t)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	a.Send(1, 2, overlay.DataChunk{Seq: 0})
	a.SendBatch(1, []overlay.NodeID{2, 2, 2}, overlay.DataChunk{Seq: 1}, nil)
	a.Send(1, 2, overlay.DataChunk{Seq: 2})
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 5 }) {
		t.Fatalf("delivered %d of 5", c.count())
	}
	want := []int64{0, 1, 1, 1, 2}
	for i, m := range c.snapshot() {
		if m.(overlay.DataChunk).Seq != want[i] {
			t.Fatalf("order at %d: got seq %d, want %d", i, m.(overlay.DataChunk).Seq, want[i])
		}
	}
}

// TestUDPControlBypassesCoalescer verifies acked control frames never
// wait out the coalescing window: with an hour-long flush interval a
// control message still arrives immediately, while a data chunk sits in
// the queue.
func TestUDPControlBypassesCoalescer(t *testing.T) {
	a, b := newUDPPair(t)
	setFlushInterval(a, time.Hour)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	if !a.Send(1, 2, overlay.DataChunk{Seq: 1}) {
		t.Fatal("data send failed")
	}
	if !a.Send(1, 2, overlay.InfoRequest{Token: 9}) {
		t.Fatal("control send failed")
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.count() >= 1 }) {
		t.Fatal("control frame did not bypass the coalescer")
	}
	if _, ok := c.snapshot()[0].(overlay.InfoRequest); !ok {
		t.Fatalf("first delivery = %T, want InfoRequest (data should still be queued)", c.snapshot()[0])
	}
	// The data chunk is only released by Close's shutdown flush.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 2 }) {
		t.Fatalf("queued data chunk not flushed on close; delivered %d", c.count())
	}
}

// TestDedupeSeqWraparound walks the control-seq dedupe window across the
// uint32 wraparound boundary. Transport seqs are value-identified (the
// window is a set over the last dedupeWindow values, not an ordered
// horizon), so 0 following ^uint32(0) is just another fresh value — this
// pins that property.
func TestDedupeSeqWraparound(t *testing.T) {
	d := newDedupe()
	start := ^uint32(0) - 5
	var seqs []uint32
	for i := uint32(0); i < 12; i++ {
		seqs = append(seqs, start+i) // wraps past ^uint32(0) to 0,1,...
	}
	for _, s := range seqs {
		if d.seen(s) {
			t.Fatalf("seq %d flagged duplicate on first sight", s)
		}
	}
	for _, s := range seqs {
		if !d.seen(s) {
			t.Fatalf("seq %d not flagged duplicate on second sight", s)
		}
	}
}

// TestDedupeWindowEviction fills the window past capacity and checks the
// oldest entry is forgotten (and therefore accepted again).
func TestDedupeWindowEviction(t *testing.T) {
	d := newDedupe()
	for i := 0; i <= dedupeWindow; i++ {
		if d.seen(uint32(i)) {
			t.Fatalf("seq %d flagged duplicate on first sight", i)
		}
	}
	if d.seen(0) {
		t.Fatal("seq 0 should have been evicted from the window")
	}
	if d.seen(uint32(dedupeWindow)) != true {
		t.Fatal("newest seq lost from the window")
	}
}

// TestUDPPortableFallback forces the path Linux CI cannot otherwise
// reach: with no mmsg engine the transport reads and writes one datagram
// per syscall, and batch_generic.go promises the coalescer's queueing
// semantics hold regardless. A burst and a 3-way SendBatch go through the
// per-datagram loops. A datagram may carry several frames, so the
// invariant is one syscall per datagram.
func TestUDPPortableFallback(t *testing.T) {
	newMmsg = func(*net.UDPConn) *mmsgIO { return nil }
	t.Cleanup(func() { newMmsg = newMmsgIO })

	a, b := newUDPPair(t)
	if a.mmsg != nil || b.mmsg != nil {
		t.Fatal("mmsg engine active though stubbed out")
	}
	var c collector
	for id := overlay.NodeID(2); id <= 5; id++ {
		b.Register(id, c.handler())
		if err := a.SetRoute(id, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}

	const n = 50
	for i := 0; i < n; i++ {
		if !a.Send(1, 2, overlay.DataChunk{Seq: int64(i)}) {
			t.Fatalf("send %d failed", i)
		}
	}
	if failed := a.SendBatch(1, []overlay.NodeID{3, 4, 5}, overlay.DataChunk{Seq: n}, nil); len(failed) != 0 {
		t.Fatalf("SendBatch failed = %v", failed)
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == n+3 }) {
		t.Fatalf("delivered %d of %d", c.count(), n+3)
	}
	dp := a.Dataplane()
	if dp.SentFrames != n+3 || dp.SendSyscalls != dp.SentDatagrams {
		t.Fatalf("portable path: SendSyscalls = %d, SentDatagrams = %d, SentFrames = %d; want one syscall per datagram and %d frames",
			dp.SendSyscalls, dp.SentDatagrams, dp.SentFrames, n+3)
	}
	if rdp := b.Dataplane(); rdp.RecvSyscalls != rdp.RecvDatagrams || rdp.RecvFrames != n+3 {
		t.Fatalf("portable path: RecvSyscalls = %d, RecvDatagrams = %d, RecvFrames = %d; want one syscall per datagram and %d frames",
			rdp.RecvSyscalls, rdp.RecvDatagrams, rdp.RecvFrames, n+3)
	}
}

// TestUDPMaxSizeFrames sends the largest legal datagrams in one train with
// small chunks on both sides — a DataChunk with a wire.MaxChunkPayload
// payload and a control frame a few bytes under wire.MaxPayload — while
// the receiver is held, so they queue in its socket and one read drains
// them together. Every frame must arrive byte-intact: a receive slot
// smaller than the largest legal datagram would truncate one. It runs on
// the mmsg engine and on the portable fallback.
func TestUDPMaxSizeFrames(t *testing.T) {
	t.Run("mmsg", testMaxSizeFrames)
	t.Run("portable", func(t *testing.T) {
		newMmsg = func(*net.UDPConn) *mmsgIO { return nil }
		t.Cleanup(func() { newMmsg = newMmsgIO })
		testMaxSizeFrames(t)
	})
}

func testMaxSizeFrames(t *testing.T) {
	a, b := newUDPPair(t)
	var c collector
	collect := c.handler()
	held, release := make(chan struct{}), make(chan struct{})
	// Release the held receive loop however the test ends: a failure
	// before the release below would otherwise leave the pair's Close
	// waiting on it forever. Cleanups run last-registered first, so this
	// one runs before the Close that newUDPPair registered.
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unhold)
	first := true // touched only by b's receive goroutine
	b.Register(2, func(from overlay.NodeID, m overlay.Message) {
		if first {
			first = false
			close(held)
			<-release // hold the receive loop: the train queues in the socket
		}
		collect(from, m)
	})
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	payload := func(seq, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + seq)
		}
		return p
	}
	const big = 5
	chunk := func(seq int) overlay.DataChunk {
		n := 40 + seq
		if seq == big {
			n = wire.MaxChunkPayload
		}
		return overlay.DataChunk{Seq: int64(seq), Payload: payload(seq, n)}
	}
	ctrl := maxControlFrame(t)

	to := []overlay.NodeID{2}
	a.SendBatch(1, to, chunk(0), nil)
	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("first chunk not delivered")
	}
	const chunks = 14
	for seq := 1; seq < chunks; seq++ {
		if failed := a.SendBatch(1, to, chunk(seq), nil); len(failed) != 0 {
			t.Fatalf("SendBatch %d failed", seq)
		}
		if seq == 9 {
			a.SendBatch(1, to, ctrl, nil)
		}
	}
	// The train is the chunks after the first and the control frame; its
	// retransmissions (the ack waits behind the held loop) come on top.
	train := int64(chunks - 1 + 1)
	if !waitFor(t, 2*time.Second, func() bool { return a.Dataplane().SentFrames >= 1+train }) {
		t.Fatalf("sent %d frames, want %d", a.Dataplane().SentFrames, 1+train)
	}
	time.Sleep(20 * time.Millisecond)
	unhold()
	if !waitFor(t, 5*time.Second, func() bool { return c.count() == chunks+1 }) {
		t.Fatalf("delivered %d of %d", c.count(), chunks+1)
	}

	seen := make(map[int64]bool)
	gotCtrl := false
	for _, m := range c.snapshot() {
		switch m := m.(type) {
		case overlay.DataChunk:
			if want := chunk(int(m.Seq)); !bytes.Equal(m.Payload, want.Payload) {
				t.Fatalf("chunk %d: %d payload bytes, want %d intact", m.Seq, len(m.Payload), len(want.Payload))
			}
			seen[m.Seq] = true
		case overlay.ConnResponse:
			if !reflect.DeepEqual(m, ctrl) {
				t.Fatal("max-size control frame changed in transit")
			}
			gotCtrl = true
		default:
			t.Fatalf("unexpected %T", m)
		}
	}
	if len(seen) != chunks || !gotCtrl {
		t.Fatalf("got chunks %v and control frame %v", seen, gotCtrl)
	}
	if b.mmsg != nil {
		if got := b.Dataplane().MaxBatch; got < train {
			t.Fatalf("largest receive batch %d, want the whole train of %d in one recvmmsg", got, train)
		}
	}
}

// maxControlFrame builds a ConnResponse whose encoded payload is within a
// node id of wire.MaxPayload: a full child list plus the longest root
// path that still encodes.
func maxControlFrame(t *testing.T) overlay.ConnResponse {
	t.Helper()
	m := overlay.ConnResponse{Token: 7, Accepted: true, Children: make([]overlay.ChildInfo, wire.MaxList)}
	for i := range m.Children {
		m.Children[i] = overlay.ChildInfo{ID: overlay.NodeID(i + 3), Dist: float64(i) / 8}
	}
	size := func(m overlay.ConnResponse) (int, error) {
		b, err := encodeFrame(wire.Frame{Kind: wire.KindMsg, From: 1, To: 2, Seq: 1, Msg: m})
		return len(b), err
	}
	base, err := size(m)
	if err != nil {
		t.Fatal(err)
	}
	for n := (wire.MaxPayload - base) / 4; n > 0; n-- {
		m.RootPath = make([]overlay.NodeID, n+32)
		for i := range m.RootPath {
			m.RootPath[i] = overlay.NodeID(i + 1)
		}
		if got, err := size(m); err == nil {
			if got < wire.MaxPayload {
				t.Fatalf("control frame of %d bytes, want at least %d", got, wire.MaxPayload)
			}
			return m
		}
	}
	t.Fatal("no root path length encodes")
	return m
}

// TestUDPBundlesPerDestination reads the coalescer's datagrams raw off a
// plain socket. Small frames queued for one child in one flush leave in
// order in one datagram; frames for two children never share one; a
// child's frames fill datagrams up to bundleCap and spill into the next;
// and a frame over the cap goes alone.
func TestUDPBundlesPerDestination(t *testing.T) {
	a, err := NewUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	setFlushInterval(a, time.Hour)
	t.Cleanup(func() { a.Close() })
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	for _, id := range []overlay.NodeID{2, 3} {
		if err := a.SetRoute(id, raw.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	chunk := func(seq, n int) overlay.DataChunk {
		return overlay.DataChunk{Seq: int64(seq), Payload: bytes.Repeat([]byte{byte(seq)}, n)}
	}
	// flush sends what is queued and returns the datagrams that arrive,
	// each as its frames' (destination, seq) pairs, checking each frame's
	// payload and each bundle's size on the way.
	type frameID struct {
		to  overlay.NodeID
		seq int64
	}
	flush := func(datagrams int) [][]frameID {
		t.Helper()
		a.co.flush()
		var got [][]frameID
		buf := make([]byte, recvSlot)
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		for len(got) < datagrams {
			n, _, err := raw.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("read datagram %d of %d: %v", len(got)+1, datagrams, err)
			}
			var ids []frameID
			if _, err := wire.DecodeDatagram(buf[:n], func(f wire.Frame) {
				c := f.Msg.(overlay.DataChunk)
				if !bytes.Equal(c.Payload, chunk(int(c.Seq), len(c.Payload)).Payload) {
					t.Errorf("chunk %d payload corrupted", c.Seq)
				}
				ids = append(ids, frameID{f.To, c.Seq})
			}); err != nil {
				t.Fatalf("datagram %d: %v", len(got)+1, err)
			}
			if len(ids) > 1 && n > bundleCap {
				t.Fatalf("datagram of %d frames is %d bytes, over the %d-byte cap", len(ids), n, bundleCap)
			}
			got = append(got, ids)
		}
		return got
	}
	to := []overlay.NodeID{2}

	// k small frames for one child: one datagram, in order.
	const k = 5
	for seq := 0; seq < k; seq++ {
		a.SendBatch(1, to, chunk(seq, 40), nil)
	}
	got := flush(1)
	want := [][]frameID{{{2, 0}, {2, 1}, {2, 2}, {2, 3}, {2, 4}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one child's flush arrived as %v, want %v", got, want)
	}
	if dp := a.Dataplane(); dp.SentDatagrams != 1 || dp.SentFrames != k {
		t.Fatalf("SentDatagrams = %d, SentFrames = %d; want 1 and %d", dp.SentDatagrams, dp.SentFrames, k)
	}

	// Two children interleaved, then a frame over the cap between two
	// small ones: child 2's frames fill a datagram and spill into the
	// next, the big frame goes alone, and child 3 gets its own datagram.
	frame, err := encodeFrame(wire.Frame{Kind: wire.KindMsg, From: 1, To: 2, Msg: chunk(10, 256)})
	if err != nil {
		t.Fatal(err)
	}
	perDatagram := bundleCap / len(frame)
	for seq := 10; seq < 10+perDatagram+1; seq++ {
		a.SendBatch(1, to, chunk(seq, 256), nil)
		a.SendBatch(1, []overlay.NodeID{3}, chunk(100+seq, 40), nil)
	}
	a.SendBatch(1, to, chunk(50, bundleCap), nil)
	a.SendBatch(1, to, chunk(51, 40), nil)
	got = flush(5)
	var full, spill, three []frameID
	for seq := 10; seq < 10+perDatagram; seq++ {
		full = append(full, frameID{2, int64(seq)})
	}
	spill = []frameID{{2, int64(10 + perDatagram)}}
	for seq := 10; seq < 10+perDatagram+1; seq++ {
		three = append(three, frameID{3, int64(100 + seq)})
	}
	want = [][]frameID{full, spill, {{2, 50}}, {{2, 51}}, three}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("two children's flush arrived as\n %v\nwant\n %v", got, want)
	}
	frames := int64(k + 2*(perDatagram+1) + 2)
	if dp := a.Dataplane(); dp.SentDatagrams != 1+5 || dp.SentFrames != frames {
		t.Fatalf("SentDatagrams = %d, SentFrames = %d; want %d and %d", dp.SentDatagrams, dp.SentFrames, 1+5, frames)
	}
}

// TestUDPMalformedFrameInDatagram sends one datagram holding a good
// frame, a frame of unknown kind and another good frame: the first is
// dispatched, and the rest of the datagram is dropped and counted once as
// undeliverable. It runs on the mmsg engine and on the portable fallback.
func TestUDPMalformedFrameInDatagram(t *testing.T) {
	t.Run("mmsg", testMalformedFrameInDatagram)
	t.Run("portable", func(t *testing.T) {
		newMmsg = func(*net.UDPConn) *mmsgIO { return nil }
		t.Cleanup(func() { newMmsg = newMmsgIO })
		testMalformedFrameInDatagram(t)
	})
}

func testMalformedFrameInDatagram(t *testing.T) {
	a, b := newUDPPair(t)
	var c collector
	b.Register(2, c.handler())
	good := func(seq int64) []byte {
		f, err := encodeFrame(wire.Frame{Kind: wire.KindMsg, From: 1, To: 2, Msg: overlay.DataChunk{Seq: seq}})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	bad := good(1)
	bad[1] = 99 // unknown kind
	dgram := append(append(good(0), bad...), good(2)...)
	if _, err := a.conn.WriteTo(dgram, b.conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return b.Counters().Undeliver.Load() == 1 }) {
		t.Fatalf("Undeliver = %d, want 1", b.Counters().Undeliver.Load())
	}
	time.Sleep(20 * time.Millisecond) // nothing more may arrive
	msgs := c.snapshot()
	if len(msgs) != 1 || msgs[0].(overlay.DataChunk).Seq != 0 {
		t.Fatalf("delivered %v, want the first frame only", msgs)
	}
	if got := b.Counters().Undeliver.Load(); got != 1 {
		t.Fatalf("Undeliver = %d, want 1", got)
	}
	if dp := b.Dataplane(); dp.RecvDatagrams != 1 || dp.RecvFrames != 2 {
		t.Fatalf("RecvDatagrams = %d, RecvFrames = %d; want 1 and 2 (a frame and the dropped remainder)", dp.RecvDatagrams, dp.RecvFrames)
	}
}
