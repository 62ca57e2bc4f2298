package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// collector records delivered messages for one registered node.
type collector struct {
	mu   sync.Mutex
	msgs []overlay.Message
	from []overlay.NodeID
}

func (c *collector) handler() Handler {
	return func(from overlay.NodeID, m overlay.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.msgs = append(c.msgs, m)
		c.from = append(c.from, from)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) snapshot() []overlay.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]overlay.Message(nil), c.msgs...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func newUDPPair(t *testing.T, cfg UDPConfig) (*UDP, *UDP) {
	t.Helper()
	a, err := NewUDP("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDP("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func TestUDPBasicDelivery(t *testing.T) {
	a, b := newUDPPair(t, UDPConfig{})
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	if !a.Send(1, 2, overlay.InfoRequest{Token: 7}) {
		t.Fatal("send failed")
	}
	if !a.Send(1, 2, overlay.DataChunk{Seq: 42}) {
		t.Fatal("data send failed")
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 2 }) {
		t.Fatalf("delivered %d of 2", c.count())
	}
	// b learned a's address from the inbound frames: the reverse path
	// works without an explicit route.
	var back collector
	a.Register(1, back.handler())
	if !b.Send(2, 1, overlay.Pong{Token: 7}) {
		t.Fatal("reverse send failed")
	}
	if !waitFor(t, 2*time.Second, func() bool { return back.count() == 1 }) {
		t.Fatal("reverse path did not deliver")
	}
}

// TestUDPControlRetry drops the first k transmissions of every control
// frame and asserts the request still completes within the backoff
// budget, exactly once (dedupe), while data chunks stay best-effort.
func TestUDPControlRetry(t *testing.T) {
	const k = 3
	cfg := UDPConfig{RetryBase: 10 * time.Millisecond, RetryAttempts: 6}
	a, b := newUDPPair(t, cfg)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	sends := 0
	a.SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		mu.Lock()
		defer mu.Unlock()
		if f.Kind != wire.KindMsg {
			return false
		}
		sends++
		return attempt < k // drop the first k transmissions of each frame
	})

	start := time.Now()
	if !a.Send(1, 2, overlay.ConnRequest{Token: 55, Dist: 3.5}) {
		t.Fatal("send failed")
	}
	// Backoff budget for k dropped attempts: 10+20+40 ms ≈ 70 ms; give a
	// generous ceiling well under the protocol's 2 s conn timeout.
	if !waitFor(t, time.Second, func() bool { return c.count() == 1 }) {
		t.Fatalf("control message not delivered after %v and %d sends", time.Since(start), sends)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("delivery took %v, beyond the backoff budget", elapsed)
	}
	got := c.snapshot()[0].(overlay.ConnRequest)
	if got.Token != 55 || got.Dist != 3.5 {
		t.Fatalf("wrong message: %+v", got)
	}
	// No duplicate deliveries even though the frame was retransmitted.
	time.Sleep(100 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("message delivered %d times", c.count())
	}
	if drops := a.Counters().CtrlDrops.Load(); drops != 0 {
		t.Fatalf("ctrl drops = %d for a delivered message", drops)
	}
}

// TestUDPControlRetryExhaustion loses every transmission and checks the
// sender gives up after its attempt budget, counting one control drop.
// The rest of the send-side accounting rides along: a lost data chunk is
// one DataDrop, and a send to an unroutable destination fails and counts
// Undeliver. Lost sends still report true, as overlay.Network.Send does.
func TestUDPControlRetryExhaustion(t *testing.T) {
	cfg := UDPConfig{RetryBase: 5 * time.Millisecond, RetryAttempts: 4}
	a, b := newUDPPair(t, cfg)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if a.Send(1, 9, overlay.Ping{Token: 1}) {
		t.Fatal("send to unknown destination reported success")
	}
	if got := a.Counters().Undeliver.Load(); got != 1 {
		t.Fatalf("undeliver = %d, want 1", got)
	}
	a.SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		return f.Kind == wire.KindMsg
	})

	if !a.Send(1, 2, overlay.DataChunk{Seq: 1}) {
		t.Fatal("dropped data send should still report true")
	}
	if !a.Send(1, 2, overlay.Ping{Token: 2}) {
		t.Fatal("dropped ctrl send should still report true")
	}
	if !waitFor(t, 2*time.Second, func() bool { return a.Counters().CtrlDrops.Load() == 1 }) {
		t.Fatalf("ctrl drops = %d, want 1", a.Counters().CtrlDrops.Load())
	}
	if got := a.Counters().DataDrops.Load(); got != 1 {
		t.Fatalf("data drops = %d, want 1", got)
	}
	if c.count() != 0 {
		t.Fatal("fully-lost message was delivered")
	}
}

// TestUDPAddressResolution parks a send to an unknown node, resolves it
// through the ResolveFn hook, and checks the parked message flushes.
func TestUDPAddressResolution(t *testing.T) {
	a, b := newUDPPair(t, UDPConfig{})
	var c collector
	b.Register(5, c.handler())

	resolved := make(chan overlay.NodeID, 1)
	a.SetResolveFn(func(id overlay.NodeID) { resolved <- id })

	if !a.Send(1, 5, overlay.InfoRequest{Token: 9}) {
		t.Fatal("send with resolver should park, not fail")
	}
	select {
	case id := <-resolved:
		if id != 5 {
			t.Fatalf("resolver asked for %d", id)
		}
	case <-time.After(time.Second):
		t.Fatal("resolver not invoked")
	}
	if err := a.SetRoute(5, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 1 }) {
		t.Fatal("parked message not flushed after SetRoute")
	}
	if got := a.Counters().Ctrl.Load(); got != 1 {
		t.Fatalf("ctrl counter = %d, want 1 (no double count on flush)", got)
	}
}

// TestUDPMalformedDatagram sends garbage at the socket and checks the
// transport survives and keeps working.
func TestUDPMalformedDatagram(t *testing.T) {
	a, b := newUDPPair(t, UDPConfig{})
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	// Hand-crafted garbage straight to b's socket.
	garbage := [][]byte{
		{},
		{0xff, 0xff, 0xff},
		{wire.Version, 99, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0},
		make([]byte, 2000),
	}
	conn := a.conn
	baddr := b.conn.LocalAddr()
	for _, g := range garbage {
		conn.WriteTo(g, baddr)
	}
	if !a.Send(1, 2, overlay.Ping{Token: 3}) {
		t.Fatal("send failed")
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 1 }) {
		t.Fatal("transport stopped working after malformed datagrams")
	}
}

// TestUDPStatsRetransmitsAndAcks drops the first k transmissions of a
// control frame and checks the reliability accounting: k retransmissions
// on the sender, one ack received, and matching trace events.
func TestUDPStatsRetransmitsAndAcks(t *testing.T) {
	const k = 2
	cfg := UDPConfig{RetryBase: 10 * time.Millisecond, RetryAttempts: 6}
	a, b := newUDPPair(t, cfg)
	var c collector
	b.Register(2, c.handler())
	if err := a.SetRoute(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	var sink obs.MemSink
	a.SetTracer(obs.NewTracer(&sink, "vdm", 1, func() float64 { return 0 }))
	a.SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		return f.Kind == wire.KindMsg && attempt < k
	})

	if !a.Send(1, 2, overlay.Ping{Token: 11}) {
		t.Fatal("send failed")
	}
	if !waitFor(t, 2*time.Second, func() bool { return a.Stats().AcksReceived == 1 }) {
		t.Fatalf("stats = %+v, want one ack", a.Stats())
	}
	if s := a.Stats(); s.Retransmits < k {
		t.Fatalf("retransmits = %d, want >= %d", s.Retransmits, k)
	}
	// The receiver acks before it dispatches, so the ack can arrive
	// before the handler has run.
	if !waitFor(t, 2*time.Second, func() bool { return c.count() >= 1 }) || c.count() != 1 {
		t.Fatalf("delivered %d times", c.count())
	}

	types := map[string]int{}
	for _, e := range sink.Events() {
		types[e.Type]++
	}
	if types[obs.EvUDPRetransmit] < k {
		t.Fatalf("trace retransmit events = %d, want >= %d (%v)", types[obs.EvUDPRetransmit], k, types)
	}
	if types[obs.EvUDPAck] != 1 {
		t.Fatalf("trace ack events = %d, want 1 (%v)", types[obs.EvUDPAck], types)
	}
	for _, e := range sink.Events() {
		if e.Type == obs.EvUDPAck && e.Value < 0 {
			t.Fatalf("negative ack latency: %+v", e)
		}
	}
}

// TestUDPStatsDedupeDrops replays an identical control frame at the
// receiver's socket and checks the duplicate is counted, traced, and not
// delivered twice.
func TestUDPStatsDedupeDrops(t *testing.T) {
	a, b := newUDPPair(t, UDPConfig{})
	var c collector
	b.Register(2, c.handler())

	var sink obs.MemSink
	b.SetTracer(obs.NewTracer(&sink, "vdm", 2, func() float64 { return 0 }))

	// Bypass the sender's reliability machinery so the same seq arrives
	// twice, as it would after a lost ack forced a retransmission.
	f := wire.Frame{Kind: wire.KindMsg, From: 1, To: 2, Seq: 77, Msg: overlay.Ping{Token: 5}}
	baddr := b.conn.LocalAddr().(*net.UDPAddr)
	for i := 0; i < 2; i++ {
		if err := a.SendFrame(baddr, f); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 2*time.Second, func() bool { return b.Stats().DedupeDrops == 1 }) {
		t.Fatalf("stats = %+v, want one dedupe drop", b.Stats())
	}
	time.Sleep(20 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("duplicate delivered: count = %d", c.count())
	}

	found := false
	for _, e := range sink.Events() {
		if e.Type == obs.EvUDPDedupeDrop && e.Target == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dedupe trace event: %+v", sink.Events())
	}
}
