package transport

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// encodeFrame returns a copy of f's wire encoding, made the way the
// transport makes it: through a pooled wire.EncodeBuffer.
func encodeFrame(f wire.Frame) ([]byte, error) {
	eb := wire.GetEncodeBuffer()
	defer eb.Release()
	b, err := eb.Encode(f)
	return bytes.Clone(b), err
}

// setFlushInterval lengthens u's flush timer, so that until it fires only
// the maxBatch threshold, an explicit flush or Close sends queued frames.
func setFlushInterval(u *UDP, d time.Duration) {
	u.co.mu.Lock()
	defer u.co.mu.Unlock()
	u.co.flushInt = d
}

// TestUDPQueueBoundedWithoutEviction bursts ten flushes' worth of chunks
// at one child from concurrent senders with the flush timer held off: the
// maxBatch threshold alone bounds the queue — after every send it holds
// at most maxBatch frames plus one per sender — and every frame arrives,
// each sender's in order, with none dropped.
func TestUDPQueueBoundedWithoutEviction(t *testing.T) {
	a, b := newUDPPair(t, UDPConfig{})
	setFlushInterval(a, time.Hour)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	const senders, each = 4, 10 * maxBatch / 4
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Send(1, 2, overlay.DataChunk{Seq: int64(s*each + i), Payload: make([]byte, 256)})
				if d := a.DataQueueDepth(2); d > maxBatch+senders {
					t.Errorf("sender %d, send %d: DataQueueDepth = %d, want at most %d", s, i, d, maxBatch+senders)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	a.co.flush() // the remainder under the threshold
	const n = senders * each
	if !waitFor(t, 5*time.Second, func() bool { return c.count() == n }) {
		t.Fatalf("delivered %d of %d", c.count(), n)
	}
	next := make([]int64, senders)
	for _, m := range c.snapshot() {
		seq := m.(overlay.DataChunk).Seq
		s := seq / each
		if want := s*each + next[s]; seq != want {
			t.Fatalf("sender %d: got seq %d, want %d", s, seq, want)
		}
		next[s]++
	}
	if dp := a.Dataplane(); dp.QueueDrops != 0 || dp.FlushedFrames != n {
		t.Fatalf("QueueDrops = %d, FlushedFrames = %d; want 0 and %d", dp.QueueDrops, dp.FlushedFrames, n)
	}
	if got := a.Counters().DataDrops.Load(); got != 0 {
		t.Fatalf("DataDrops = %d, want 0", got)
	}
}

// refPacker is the coalescer's packing rule written out plainly, as it
// stood when frames were queued one by one and packed at flush: each
// destination's frames wait in arrival order, and a flush — at maxBatch
// queued frames or on demand — packs them, destination by destination in
// the order each first had a frame queued, each frame appended to the
// datagram before it while that stays within bundleCap, else starting a
// new one.
type refPacker struct {
	order   []overlay.NodeID
	queued  map[overlay.NodeID][][]byte
	pending int
}

// add queues frame for to, appending to out the datagrams of the flush it
// triggers, if any.
func (r *refPacker) add(out [][]byte, to overlay.NodeID, frame []byte) [][]byte {
	if len(r.queued[to]) == 0 {
		r.order = append(r.order, to)
	}
	r.queued[to] = append(r.queued[to], frame)
	if r.pending++; r.pending >= maxBatch {
		return r.flush(out)
	}
	return out
}

// flush appends the queued frames' datagrams to out.
func (r *refPacker) flush(out [][]byte) [][]byte {
	for _, to := range r.order {
		first := len(out)
		for _, f := range r.queued[to] {
			if k := len(out) - 1; k >= first && len(out[k])+len(f) <= bundleCap {
				out[k] = append(out[k], f...)
				continue
			}
			out = append(out, append([]byte(nil), f...))
		}
		r.queued[to] = nil
	}
	r.order, r.pending = r.order[:0], 0
	return out
}

// TestUDPCoalescerMatchesReferencePacking sends a seeded random mix of
// chunk frames — small, mid-size, sized to fill a datagram exactly and
// over bundleCap, through Send and
// through SendBatch to several destinations at once — to four
// destinations that all route to one plain socket, and reads every
// datagram raw. Each must equal, byte for byte and in order, what
// refPacker makes of the same frames.
func TestUDPCoalescerMatchesReferencePacking(t *testing.T) {
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
	_ = raw.SetReadBuffer(socketBuffer)
	dests := []overlay.NodeID{2, 3, 4, 5}
	for _, id := range dests {
		if err := a.SetRoute(id, raw.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}

	// A chunk frame is its payload plus a fixed overhead; the payloads in
	// exact make frames of a third, a half and all of bundleCap, so that
	// datagrams fill to the byte.
	empty, err := encodeFrame(wire.Frame{Kind: wire.KindMsg, Msg: overlay.DataChunk{}})
	if err != nil {
		t.Fatal(err)
	}
	exact := []int{bundleCap/3 - len(empty), bundleCap/2 - len(empty), bundleCap - len(empty)}

	rnd := rand.New(rand.NewSource(1))
	ref := refPacker{queued: make(map[overlay.NodeID][][]byte)}
	var want [][]byte
	got := 0
	buf := make([]byte, recvSlot)
	seq := int64(0)
	for round := 0; round < 40; round++ {
		for k := 1 + rnd.Intn(3*maxBatch/2); k > 0; k-- {
			var n int
			switch rnd.Intn(8) {
			case 0:
				n = bundleCap + rnd.Intn(bundleCap) // a frame that goes alone
			case 1, 2:
				n = exact[rnd.Intn(len(exact))]
			default:
				n = rnd.Intn(600)
			}
			payload := make([]byte, n)
			rnd.Read(payload)
			m := overlay.DataChunk{Seq: seq, Payload: payload}
			seq++
			tos := []overlay.NodeID{dests[rnd.Intn(len(dests))]}
			if rnd.Intn(3) == 0 {
				tos = tos[:0]
				for _, i := range rnd.Perm(len(dests))[:1+rnd.Intn(len(dests))] {
					tos = append(tos, dests[i])
				}
				a.SendBatch(1, tos, m, nil)
			} else if !a.Send(1, tos[0], m) {
				t.Fatalf("send of seq %d failed", m.Seq)
			}
			for _, to := range tos {
				frame, err := encodeFrame(wire.Frame{Kind: wire.KindMsg, From: 1, To: to, Msg: m})
				if err != nil {
					t.Fatal(err)
				}
				want = ref.add(want, to, frame)
			}
		}
		a.co.flush()
		want = ref.flush(want)

		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		for ; got < len(want); got++ {
			n, _, err := raw.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("round %d: read datagram %d of %d: %v", round, got+1, len(want), err)
			}
			if !bytes.Equal(buf[:n], want[got]) {
				t.Fatalf("round %d: datagram %d is %d bytes, want the reference's %d bytes\n got % x\nwant % x",
					round, got+1, n, len(want[got]), head(buf[:n]), head(want[got]))
			}
		}
	}
	if dp := a.Dataplane(); dp.SentDatagrams != int64(len(want)) {
		t.Fatalf("SentDatagrams = %d, want %d", dp.SentDatagrams, len(want))
	}
}

// head is the start of b, enough to tell two datagrams apart in a
// failure message.
func head(b []byte) []byte { return b[:min(len(b), 48)] }

// BenchmarkCoalescerFlush is the coalescer's bucket of the live CPU
// budget: each op enqueues one flush's worth (maxBatch) of 286-byte chunk
// frames round robin over three children, and the last enqueue flushes
// them to a loopback socket that is never read. It reports ns per frame;
// allocs/op is 0 in steady state.
func BenchmarkCoalescerFlush(b *testing.B) {
	a, err := NewUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	setFlushInterval(a, time.Hour)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	addr := sink.LocalAddr().(*net.UDPAddr)
	frame, err := encodeFrame(wire.Frame{Kind: wire.KindMsg, From: 1, To: overlay.None,
		Msg: overlay.DataChunk{Seq: 1, Payload: make([]byte, 256)}})
	if err != nil {
		b.Fatal(err)
	}
	if len(frame) != 286 {
		b.Fatalf("chunk frame is %d bytes, want 286", len(frame))
	}
	children := []overlay.NodeID{2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < maxBatch; k++ {
			a.co.enqueue(children[k%len(children)], addr, frame)
		}
	}
	b.StopTimer()
	if got := a.Dataplane().Flushes; got != int64(b.N) {
		b.Fatalf("%d flushes for %d ops", got, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*maxBatch), "ns/frame")
}
