//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"testing"
	"time"

	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// counts reports how many rings are free, how many exist and how many
// mmsg sockets are open.
func (s *ringStock) counts() (free, live, sockets int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free), s.live, s.sockets
}

// TestUDPRecvRingsShared checks that receive rings belong to the process,
// not to the socket: sixteen sockets that receive one after another share
// a ring, sixteen that receive at once make no more than ringCap rings,
// every ring is back on the free list once the sockets are idle, and
// closing the sockets trims the stock back to what it held before.
func TestUDPRecvRingsShared(t *testing.T) {
	// Every socket draws on the one stock, so the counts are read
	// relative to its state when the test starts.
	const socks, burst = 16, 40
	free0, live0, sockets0 := rings.counts()
	if free0 != live0 {
		t.Fatalf("stock not idle at start: free %d, live %d", free0, live0)
	}
	a, err := NewUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	var c collector
	rx := make([]*UDP, socks)
	tos := make([]overlay.NodeID, socks)
	for i := range rx {
		u, err := NewUDP("127.0.0.1:0", UDPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		if u.mmsg == nil {
			t.Skip("mmsg engine unavailable")
		}
		rx[i], tos[i] = u, overlay.NodeID(i+2)
		u.Register(tos[i], c.handler())
		if err := a.SetRoute(tos[i], u.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if free, live, sockets := rings.counts(); free != free0 || live != live0 || sockets != sockets0+socks+1 {
		t.Fatalf("idle after open: free %d, live %d, sockets %d; want %d, %d, %d",
			free, live, sockets, free0, live0, sockets0+socks+1)
	}
	idle := func() bool {
		free, live, _ := rings.counts()
		return free == live
	}

	// One receiver at a time. A ring is lent only to a readable socket,
	// so a second ring can appear only in the instant the previous
	// receiver's empty recvmmsg overlaps the next one's first.
	sent := 0
	for i, to := range tos {
		for k := 0; k < burst; k++ {
			if !a.Send(1, to, overlay.DataChunk{Seq: int64(sent)}) {
				t.Fatalf("send to socket %d failed", i)
			}
			sent++
		}
		if !waitFor(t, 5*time.Second, func() bool { return c.count() == sent }) {
			t.Fatalf("socket %d: delivered %d of %d", i, c.count(), sent)
		}
		if !waitFor(t, 2*time.Second, idle) {
			t.Fatalf("socket %d: rings still lent after delivery", i)
		}
	}
	if free, live, _ := rings.counts(); live > max(live0, 2) || free != live {
		t.Fatalf("sequential receivers: free %d, live %d; want every ring free and at most %d", free, live, max(live0, 2))
	}

	// Every receiver at once.
	for k := 0; k < burst; k++ {
		if failed := a.SendBatch(1, tos, overlay.DataChunk{Seq: int64(sent + k)}, nil); len(failed) != 0 {
			t.Fatalf("SendBatch failed = %v", failed)
		}
	}
	sent += burst * socks
	if !waitFor(t, 5*time.Second, func() bool { return c.count() == sent }) {
		t.Fatalf("fan-out: delivered %d of %d", c.count(), sent)
	}
	if !waitFor(t, 2*time.Second, idle) {
		t.Fatal("fan-out: rings still lent after delivery")
	}
	free, live, _ := rings.counts()
	if live > ringCap() || free != live {
		t.Fatalf("concurrent receivers: free %d, live %d; want every ring free and at most %d", free, live, ringCap())
	}
	t.Logf("%d sockets: %d ring(s) after the fan-out", socks, live)

	for _, u := range rx {
		u.Close()
	}
	a.Close()
	if free, live, sockets := rings.counts(); free != live || live > sockets0 || sockets != sockets0 {
		t.Fatalf("after close: free %d, live %d, sockets %d; want every ring free, at most %d, and %d sockets",
			free, live, sockets, sockets0, sockets0)
	}
}

// TestRingStockWaitsAtCap checks the stock's bound: with ringCap rings
// lent, the next get waits, and it is handed the ring put back rather than
// a new one.
func TestRingStockWaitsAtCap(t *testing.T) {
	_, _, sockets0 := rings.counts()
	lent := make([]*recvRing, ringCap())
	for i := range lent {
		lent[i] = rings.get()
	}
	got := make(chan *recvRing)
	go func() { got <- rings.get() }()
	select {
	case <-got:
		t.Fatalf("get past the cap of %d did not wait", ringCap())
	case <-time.After(50 * time.Millisecond):
	}
	rings.put(lent[0])
	select {
	case r := <-got:
		if r != lent[0] {
			t.Fatal("waiter got a new ring, not the one put back")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by put")
	}
	if _, live, _ := rings.counts(); live != ringCap() {
		t.Fatalf("live %d, want %d", live, ringCap())
	}
	for _, r := range lent {
		rings.put(r)
	}
	rings.open()
	rings.close() // the stock drops the free rings no open socket needs
	if free, live, sockets := rings.counts(); free != live || live > sockets0 || sockets != sockets0 {
		t.Fatalf("after close: free %d, live %d, sockets %d; want every ring free, at most %d, and %d sockets",
			free, live, sockets, sockets0, sockets0)
	}
}

// TestReadBatchAllocatesNothing pins the receive path's steady state:
// with the ring stock and the sender's address cached, a readBatch that
// drains one datagram of frames without payload slices (acks) allocates
// nothing — its recvmmsg callback is bound once, not made per call.
func TestReadBatchAllocatesNothing(t *testing.T) {
	rx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	m := newMmsgIO(rx)
	if m == nil {
		t.Skip("mmsg engine unavailable")
	}
	t.Cleanup(m.close)
	tx, err := net.DialUDP("udp4", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	var dgram []byte
	for seq := uint32(1); seq <= 3; seq++ {
		f, err := encodeFrame(wire.Frame{Kind: wire.KindAck, From: 1, To: 2, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		dgram = append(dgram, f...)
	}
	var bad int
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tx.Write(dgram); err != nil {
			bad++
			return
		}
		got, n, err := m.readBatch()
		if err != nil || n != 1 || len(got) != 3 || got[2].f.Seq != 3 {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("%d of the runs did not read the datagram's three frames", bad)
	}
	if allocs != 0 {
		t.Fatalf("readBatch allocated %v objects per datagram, want 0", allocs)
	}
}
