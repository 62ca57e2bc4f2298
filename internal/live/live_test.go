package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vdm/internal/core"
	"vdm/internal/flow"
	"vdm/internal/overlay"
	"vdm/internal/transport"
)

// TestClusterLoopback is the live-runtime acceptance test: boot 24 peers
// on the in-memory transport, join them through the real VDM iterative
// join, stream chunks, and require ≥95% delivery at every peer plus a
// structurally valid, degree-bounded tree. Run under -race this also
// exercises the serialized-mailbox contract end to end.
func TestClusterLoopback(t *testing.T) {
	const (
		nPeers    = 24
		maxDegree = 4
		nChunks   = 60
	)
	c := NewCluster(ClusterConfig{N: nPeers, MaxDegree: maxDegree})
	defer c.Close()

	if err := c.WaitConnected(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if errs := c.Validate(); len(errs) != 0 {
		t.Fatalf("invalid tree after join: %v", errs)
	}

	c.Stream(nChunks, time.Millisecond)

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

	// The transports and the sim network share one accounting scheme:
	// every emitted chunk copy is visible in the Data counter.
	if data := c.Tr.Counters().Data.Load(); data < int64(nChunks)*(nPeers-1) {
		t.Errorf("data counter = %d, want ≥ %d", data, nChunks*(nPeers-1))
	}
}

// TestClusterLeaveRecovers takes down an interior node and checks its
// orphans reconnect on the live runtime (grandparent-first recovery on
// real timers).
func TestClusterLeaveRecovers(t *testing.T) {
	c := NewCluster(ClusterConfig{N: 12, MaxDegree: 3})
	defer c.Close()
	if err := c.WaitConnected(20 * time.Second); err != nil {
		t.Fatal(err)
	}

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

// udpCluster is a miniature deployment the way cmd/vdmd runs one: every
// peer on its own UDP socket.
type udpCluster struct {
	src   *Peer
	peers []*Peer          // joiners, in join order
	trs   []*transport.UDP // trs[0] is the source's, trs[i+1] is peers[i]'s
}

// bootUDP boots a source and joiners over loopback UDP (Hello/Welcome
// bootstrap, then the VDM join) and returns once every joiner is
// connected. Teardown is registered on t.
func bootUDP(t *testing.T, joiners, maxDegree int, flowCfg *flow.Config) *udpCluster {
	t.Helper()
	epoch := time.Now()
	c := &udpCluster{}
	boot := func(join func(tr *transport.UDP) (overlay.NodeID, time.Time)) *Peer {
		tr, err := transport.NewUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		c.trs = append(c.trs, tr)
		id, ep := join(tr)
		p := NewPeer(tr, ep, func(bus overlay.Bus) overlay.Protocol {
			return core.New(bus, overlay.PeerConfig{
				ID: id, Source: 0, MaxDegree: maxDegree, IsSource: id == 0, Flow: flowCfg,
			}, core.Config{}, nil)
		})
		t.Cleanup(p.Stop)
		return p
	}

	c.src = boot(func(tr *transport.UDP) (overlay.NodeID, time.Time) {
		NewSourceSession(tr, epoch)
		return 0, epoch
	})
	for i := 0; i < joiners; i++ {
		p := boot(func(tr *transport.UDP) (overlay.NodeID, time.Time) {
			sess, err := JoinSession(tr, c.trs[0].LocalAddr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if sess.ID() == overlay.None {
				t.Fatal("joined session without an id")
			}
			// The Welcome hands the joiner the session epoch; on loopback
			// the adopted clock must land within the Hello→Welcome transit
			// of the source's own.
			if skew := sess.Epoch().Sub(epoch); skew < -time.Millisecond || skew > 250*time.Millisecond {
				t.Fatalf("joiner %d adopted epoch %v off the source's", sess.ID(), skew)
			}
			return sess.ID(), sess.Epoch()
		})
		p.StartJoin()
		c.peers = append(c.peers, p)
	}

	connected := func() bool {
		for _, p := range c.peers {
			if !p.Connected() {
				return false
			}
		}
		return true
	}
	if !pollUntil(20*time.Second, connected) {
		t.Fatal("UDP peers did not all connect")
	}
	return c
}

// TestUDPSessionEndToEnd runs a miniature deployment the way cmd/vdmd
// does: one UDP transport per peer, Hello/Welcome bootstrap, VDM join,
// and a short stream.
func TestUDPSessionEndToEnd(t *testing.T) {
	c := bootUDP(t, 5, 3, nil)

	const nChunks = 30
	for seq := 0; seq < nChunks; seq++ {
		c.src.EmitChunk(int64(seq))
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)

	minRecv := int64(nChunks * 95 / 100)
	for _, p := range c.peers {
		if got := p.Stats().Received; got < minRecv {
			t.Errorf("peer %d received %d of %d chunks", p.ID(), got, nChunks)
		}
	}
}

// TestClusterPayloadFanout streams chunks with real payloads through a
// small loopback cluster and checks the fan-out fast path end to end:
// every joiner observes every payload byte-for-byte (in seq order), and
// the transport confirms the deliveries went through the batch path
// (peerBus.SendFanout → Mem.SendBatch).
func TestClusterPayloadFanout(t *testing.T) {
	const (
		nJoiners = 4
		nChunks  = 20
	)
	tr := transport.NewMem()
	defer tr.Close()
	epoch := time.Now()

	type recv struct {
		mu     sync.Mutex
		chunks []overlay.DataChunk
	}
	newNode := func(bus overlay.Bus, id overlay.NodeID, rc *recv) overlay.Protocol {
		n := core.New(bus, overlay.PeerConfig{
			ID: id, Source: 0, MaxDegree: nJoiners, IsSource: id == 0,
		}, core.Config{}, nil)
		if rc != nil {
			n.Base().SetChunkObserver(func(c overlay.DataChunk) {
				rc.mu.Lock()
				rc.chunks = append(rc.chunks, c)
				rc.mu.Unlock()
			})
		}
		return n
	}

	srcPeer := NewPeer(tr, epoch, func(bus overlay.Bus) overlay.Protocol {
		return newNode(bus, 0, nil)
	})
	defer srcPeer.Stop()

	recvs := make([]*recv, nJoiners)
	joiners := make([]*Peer, nJoiners)
	for i := 0; i < nJoiners; i++ {
		rc := &recv{}
		recvs[i] = rc
		id := overlay.NodeID(i + 1)
		p := NewPeer(tr, epoch, func(bus overlay.Bus) overlay.Protocol {
			return newNode(bus, id, rc)
		})
		defer p.Stop()
		p.StartJoin()
		joiners[i] = p
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, p := range joiners {
			if !p.Connected() {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joiners did not all connect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	for seq := 0; seq < nChunks; seq++ {
		payload := []byte(fmt.Sprintf("chunk-%03d-payload", seq))
		srcPeer.EmitData(overlay.DataChunk{Seq: int64(seq), Payload: payload})
	}

	for i, rc := range recvs {
		ok := false
		for d := time.Now().Add(5 * time.Second); time.Now().Before(d); time.Sleep(5 * time.Millisecond) {
			rc.mu.Lock()
			n := len(rc.chunks)
			rc.mu.Unlock()
			if n == nChunks {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("joiner %d delivered %d of %d chunks", i+1, len(rc.chunks), nChunks)
		}
		rc.mu.Lock()
		for j, c := range rc.chunks {
			want := fmt.Sprintf("chunk-%03d-payload", j)
			if c.Seq != int64(j) || string(c.Payload) != want {
				t.Fatalf("joiner %d chunk %d = seq %d payload %q", i+1, j, c.Seq, c.Payload)
			}
		}
		rc.mu.Unlock()
	}
	if dp := tr.Dataplane(); dp.FanoutEncodes == 0 {
		t.Fatal("no SendBatch fan-outs recorded; fast path not engaged")
	}
}

// TestPeerStopCancelsTimers checks a stopped peer fires no late callbacks
// (After timers are cancelled, posts are discarded).
func TestPeerStopCancelsTimers(t *testing.T) {
	tr := transport.NewMem()
	defer tr.Close()
	var node overlay.Protocol
	p := NewPeer(tr, time.Now(), func(bus overlay.Bus) overlay.Protocol {
		node = core.New(bus, overlay.PeerConfig{ID: 1, Source: 0, MaxDegree: 2}, core.Config{}, nil)
		return node
	})

	fired := make(chan struct{}, 1)
	ok := p.Call(func() {
		node.Base().Net().After(0.05, func() { fired <- struct{}{} })
	})
	if !ok {
		t.Fatal("Call on a running peer failed")
	}
	p.Stop()
	select {
	case <-fired:
		t.Fatal("timer fired after Stop")
	case <-time.After(150 * time.Millisecond):
	}
	if p.Call(func() {}) {
		t.Fatal("Call succeeded on a stopped peer")
	}
}
