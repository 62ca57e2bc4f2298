//go:build linux && (amd64 || arm64)

package transport

import (
	"testing"
	"time"

	"vdm/internal/overlay"
)

// counts reports, for rings of length n, how many are free, how many
// exist and how many mmsg sockets are open.
func (s *ringStock) counts(n int) (free, live, sockets int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shelf(n)
	return len(sh.free), sh.live, sh.sockets
}

// TestUDPRecvRingsShared checks that receive rings belong to the process,
// not to the socket: sixteen sockets that receive one after another share
// a ring, sixteen that receive at once make no more than ringCap rings,
// every ring is back on the free list once the sockets are idle, and
// closing the sockets empties the stock.
func TestUDPRecvRingsShared(t *testing.T) {
	// A ring length no other test uses, so the stock's counts for it are
	// this test's alone. The sender keeps the default length.
	const batch, socks, burst = 17, 16, 40
	a, err := NewUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	var c collector
	rx := make([]*UDP, socks)
	tos := make([]overlay.NodeID, socks)
	for i := range rx {
		u, err := NewUDP("127.0.0.1:0", UDPConfig{Batch: BatchConfig{MaxBatch: batch}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		if !u.BatchIO() {
			t.Skip("mmsg engine unavailable")
		}
		rx[i], tos[i] = u, overlay.NodeID(i+2)
		u.Register(tos[i], c.handler())
		if err := a.SetRoute(tos[i], u.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if free, live, sockets := rings.counts(batch); free != 0 || live != 0 || sockets != socks {
		t.Fatalf("idle after open: free %d, live %d, sockets %d; want 0, 0, %d", free, live, sockets, socks)
	}
	idle := func() bool {
		free, live, _ := rings.counts(batch)
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
	if free, live, _ := rings.counts(batch); live > 2 || free != live {
		t.Fatalf("sequential receivers: free %d, live %d; want every ring free and at most 2", free, live)
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
	free, live, _ := rings.counts(batch)
	if live > ringCap() || free != live {
		t.Fatalf("concurrent receivers: free %d, live %d; want every ring free and at most %d", free, live, ringCap())
	}
	t.Logf("%d sockets: %d ring(s) after the fan-out", socks, live)

	for _, u := range rx {
		u.Close()
	}
	if free, live, sockets := rings.counts(batch); free != 0 || live != 0 || sockets != 0 {
		t.Fatalf("after close: free %d, live %d, sockets %d; want 0, 0, 0", free, live, sockets)
	}
}

// TestRingStockWaitsAtCap checks the stock's bound: with ringCap rings of
// one length lent, the next get waits, and it is handed the ring put back
// rather than a new one.
func TestRingStockWaitsAtCap(t *testing.T) {
	const n = 3 // a ring length no socket in this package uses
	lent := make([]*recvRing, ringCap())
	for i := range lent {
		lent[i] = rings.get(n)
	}
	got := make(chan *recvRing)
	go func() { got <- rings.get(n) }()
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
	if _, live, _ := rings.counts(n); live != ringCap() {
		t.Fatalf("live %d, want %d", live, ringCap())
	}
	for _, r := range lent {
		rings.put(r)
	}
	rings.open(n)
	rings.close(n) // no socket of this length is open: the stock drops them all
	if free, live, sockets := rings.counts(n); free != 0 || live != 0 || sockets != 0 {
		t.Fatalf("after close: free %d, live %d, sockets %d; want 0, 0, 0", free, live, sockets)
	}
}
