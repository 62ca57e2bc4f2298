package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vdm/internal/core"
	"vdm/internal/overlay"
	"vdm/internal/transport"
)

// TestClusterLoopback is the live-runtime acceptance test: boot 24 peers
// on loopback UDP sockets the way cmd/vdmd runs them (Hello/Welcome
// bootstrap, then the real VDM iterative join), stream chunks, and
// require ≥95% delivery at every peer plus a structurally valid,
// degree-bounded tree. Run under -race this also exercises the
// serialized-mailbox contract end to end.
func TestClusterLoopback(t *testing.T) {
	const (
		nPeers    = 24
		maxDegree = 4
		nChunks   = 60
	)
	c := bootCluster(t, ClusterConfig{N: nPeers, MaxDegree: maxDegree})
	if errs := c.Validate(); len(errs) != 0 {
		t.Fatalf("invalid tree after join: %v", errs)
	}

	if err := c.Stream(nChunks, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	minRecv := int64(nChunks * 95 / 100)
	for _, p := range c.Peers[1:] {
		if got := p.Stats().Received; got < minRecv {
			t.Errorf("peer %d received %d of %d chunks (min %d)", p.ID(), got, nChunks, minRecv)
		}
	}

	snap := c.Snapshot()
	if snap.Reachable != nPeers-1 {
		t.Errorf("reachable = %d, want %d", snap.Reachable, nPeers-1)
	}
	if snap.Orphans != 0 {
		t.Errorf("orphans = %d", snap.Orphans)
	}
	if snap.MaxHopcount < 2 {
		// 23 joiners under degree 4 cannot all be direct children: the
		// directional descent must have built at least two levels.
		t.Errorf("max hopcount = %v; tree did not descend", snap.MaxHopcount)
	}
	if errs := c.Validate(); len(errs) != 0 {
		t.Fatalf("invalid tree after streaming: %v", errs)
	}

	// The transport and the sim network share one accounting scheme:
	// every emitted chunk copy is visible in the Data counters.
	var data int64
	for _, tr := range c.Trs {
		data += tr.Counters().Data.Load()
	}
	if data < int64(nChunks)*(nPeers-1) {
		t.Errorf("data counter = %d, want ≥ %d", data, nChunks*(nPeers-1))
	}
}

// TestUDPSessionEndToEnd runs a miniature deployment the way cmd/vdmd
// does — one UDP socket per peer, Hello/Welcome bootstrap, VDM join — and
// checks the session layer: every joiner adopts the source's epoch, and a
// short stream arrives.
func TestUDPSessionEndToEnd(t *testing.T) {
	c := bootCluster(t, ClusterConfig{N: 6, MaxDegree: 3})

	// The Welcome hands each joiner the session epoch; on loopback the
	// adopted clock must land within the Hello→Welcome transit of the
	// source's own.
	for _, sess := range c.sessions[1:] {
		if skew := sess.Epoch().Sub(c.sessions[0].Epoch()); skew < -time.Millisecond || skew > 250*time.Millisecond {
			t.Errorf("joiner %d adopted epoch %v off the source's", sess.ID(), skew)
		}
	}

	const nChunks = 30
	if err := c.Stream(nChunks, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	minRecv := int64(nChunks * 95 / 100)
	for _, p := range c.Peers[1:] {
		pp := p
		if !pollUntil(200*time.Millisecond, func() bool { return pp.Stats().Received >= minRecv }) {
			t.Errorf("peer %d received %d of %d chunks", pp.ID(), pp.Stats().Received, nChunks)
		}
	}
}

// TestClusterLeaveRecovers takes down an interior node and checks its
// orphans reconnect on the live runtime (grandparent-first recovery on
// real timers).
func TestClusterLeaveRecovers(t *testing.T) {
	c := bootCluster(t, ClusterConfig{N: 12, MaxDegree: 3})

	// Find an interior (non-source) node with children.
	var victim *Peer
	for _, p := range c.Peers[1:] {
		if len(p.View().ChildIDs()) > 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Skip("no interior node formed; tree is a star")
	}
	vid := victim.ID()
	victim.Leave()

	// Recovered means: connected again AND no longer parented to the
	// departed node (Connected alone can be observed before the
	// LeaveNotify has even been processed).
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for _, p := range c.Peers[1:] {
			if p == victim {
				continue
			}
			v := p.View()
			if !v.Connected() || v.ParentID() == vid {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("orphans did not reconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	alive := make([]overlay.TreeView, 0, len(c.Peers)-1)
	for _, p := range c.Peers {
		if p != victim {
			alive = append(alive, p.View())
		}
	}
	errs := validateSubset(alive, 3)
	if len(errs) != 0 {
		t.Fatalf("invalid tree after leave: %v", errs)
	}
}

func validateSubset(views []overlay.TreeView, maxDegree int) []string {
	byID := make(map[overlay.NodeID]bool, len(views))
	for _, v := range views {
		byID[v.ID()] = true
	}
	var errs []string
	for _, v := range views {
		if len(v.ChildIDs()) > maxDegree {
			errs = append(errs, fmt.Sprintf("node %d exceeds degree", v.ID()))
		}
		if p := v.ParentID(); p != overlay.None && !byID[p] {
			errs = append(errs, fmt.Sprintf("node %d parented to departed %d", v.ID(), p))
		}
	}
	return errs
}

// TestClusterPayloadFanout streams chunks with real payloads through a
// small cluster and checks the fan-out fast path end to end: every joiner
// observes every payload byte-for-byte (in seq order), and the source's
// transport confirms the deliveries went through the batch path
// (peerBus.SendFanout → UDP.SendBatch).
func TestClusterPayloadFanout(t *testing.T) {
	const (
		nPeers  = 5
		nChunks = 20
	)
	c := bootCluster(t, ClusterConfig{N: nPeers, MaxDegree: nPeers - 1})

	type recv struct {
		mu     sync.Mutex
		chunks []overlay.DataChunk
	}
	recvs := make([]*recv, nPeers)
	for _, p := range c.Peers[1:] {
		rc := &recv{}
		recvs[p.ID()] = rc
		p.Call(func() {
			p.proto.Base().SetChunkObserver(func(ch overlay.DataChunk) {
				rc.mu.Lock()
				rc.chunks = append(rc.chunks, ch)
				rc.mu.Unlock()
			})
		})
	}

	for seq := 0; seq < nChunks; seq++ {
		payload := []byte(fmt.Sprintf("chunk-%03d-payload", seq))
		c.Source().EmitData(overlay.DataChunk{Seq: int64(seq), Payload: payload})
	}

	for id, rc := range recvs[1:] {
		n := func() int {
			rc.mu.Lock()
			defer rc.mu.Unlock()
			return len(rc.chunks)
		}
		if !pollUntil(5*time.Second, func() bool { return n() == nChunks }) {
			t.Fatalf("joiner %d delivered %d of %d chunks", id+1, n(), nChunks)
		}
		rc.mu.Lock()
		for j, ch := range rc.chunks {
			want := fmt.Sprintf("chunk-%03d-payload", j)
			if ch.Seq != int64(j) || string(ch.Payload) != want {
				t.Fatalf("joiner %d chunk %d = seq %d payload %q", id+1, j, ch.Seq, ch.Payload)
			}
		}
		rc.mu.Unlock()
	}
	if dp := c.Trs[0].Dataplane(); dp.FanoutEncodes == 0 {
		t.Fatal("no SendBatch fan-outs recorded; fast path not engaged")
	}
}

// TestPeerStopCancelsTimers checks a stopped peer runs no late callbacks:
// an AfterArg timer armed before Stop, or after it, fires into the
// stopped mailbox, which discards the post.
func TestPeerStopCancelsTimers(t *testing.T) {
	var node overlay.Protocol
	p := NewPeer(newUDP(t), time.Now(), func(bus overlay.Bus) overlay.Protocol {
		node = core.New(bus, overlay.PeerConfig{ID: 1, Source: 0, MaxDegree: 2}, core.Config{}, nil)
		return node
	})

	fired := make(chan struct{}, 1)
	ok := p.Call(func() {
		node.Base().Net().AfterArg(0.05, func(any) { fired <- struct{}{} }, nil)
	})
	if !ok {
		t.Fatal("Call on a running peer failed")
	}
	p.Stop()
	node.Base().Net().AfterArg(0.01, func(any) { fired <- struct{}{} }, nil)
	select {
	case <-fired:
		t.Fatal("timer callback ran after Stop")
	case <-time.After(150 * time.Millisecond):
	}
	if p.Call(func() {}) {
		t.Fatal("Call succeeded on a stopped peer")
	}
}

// bootCluster boots a cluster, closed when the test ends, and waits until
// every peer is connected and the tree validates.
func bootCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitConnected(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// newUDP opens a loopback socket, closed when the test ends.
func newUDP(t *testing.T) *transport.UDP {
	t.Helper()
	tr, err := transport.NewUDP("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}
