package live

import (
	"testing"
	"time"

	"vdm/internal/flow"
	"vdm/internal/overlay"
	"vdm/internal/transport"
	"vdm/internal/wire"
)

// pollUntil spins until cond holds or the deadline passes.
func pollUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestClusterLinkKillRepair is the reliability acceptance test: a
// degree-1 chain 0→a→b→c streams with flow control and FEC on, then the
// a→b link silently stops carrying stream data (control stays up, so the
// tree never re-joins). The victim must detect the stalled uplink and
// pull the stream from its repair path — the grandparent/source — within
// one repair round, and its own child must keep receiving through it.
func TestClusterLinkKillRepair(t *testing.T) {
	fcfg := &flow.Config{
		RateChunksPerS: 20000,
		TickS:          0.01,
		StallS:         0.05,
		NackDelayS:     0.01,
		AckEvery:       4,
		FECGroup:       8,
		PullWidth:      64,
	}
	c := NewCluster(ClusterConfig{N: 4, MaxDegree: 1, Flow: fcfg})
	defer c.Close()
	if err := c.WaitConnected(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Degree 1 forces a chain; find the depth-2 peer (grandchild of the
	// source) — the victim whose uplink we will kill.
	parentOf := map[overlay.NodeID]overlay.NodeID{}
	for _, v := range c.Views() {
		parentOf[v.ID()] = v.ParentID()
	}
	victim := overlay.None
	for id, pa := range parentOf {
		if id != 0 && pa != 0 && parentOf[pa] == 0 {
			victim = id
			break
		}
	}
	if victim == overlay.None {
		t.Fatalf("no depth-2 peer found; parents = %v", parentOf)
	}
	vParent := parentOf[victim]
	peers := map[overlay.NodeID]*Peer{}
	for _, p := range c.Peers {
		peers[p.ID()] = p
	}
	var vChild overlay.NodeID = overlay.None
	for id, pa := range parentOf {
		if pa == victim {
			vChild = id
		}
	}

	// Warm stream: establishes the victim's uplink clock and fills the
	// upstream retransmit caches.
	const warm = 20
	c.Stream(warm, time.Millisecond)
	if !pollUntil(5*time.Second, func() bool { return peers[victim].Stats().Received == warm }) {
		t.Fatalf("victim %d received %d of %d before link kill", victim, peers[victim].Stats().Received, warm)
	}
	if fs := peers[vParent].FlowStats(); fs.ParityRecv == 0 {
		t.Errorf("first-hop peer %d saw no FEC parity (ParityRecv = 0)", vParent)
	}

	// Kill the link: stream data (chunks and parity) from parent to
	// victim vanishes silently. Control and flow signaling stay up — the
	// overlay has no reason to rebuild the tree.
	c.Tr.SetDropFn(func(from, to overlay.NodeID, m overlay.Message) bool {
		return from == vParent && to == victim && overlay.IsStreamData(m)
	})

	const extra = 40
	for seq := warm; seq < warm+extra; seq++ {
		c.Source().EmitChunk(int64(seq))
		time.Sleep(time.Millisecond)
	}

	const total = warm + extra
	if !pollUntil(10*time.Second, func() bool { return peers[victim].Stats().Received == total }) {
		fs := peers[victim].FlowStats()
		t.Fatalf("victim %d recovered %d of %d chunks after link kill (flow stats %+v)",
			victim, peers[victim].Stats().Received, total, fs)
	}
	if vChild != overlay.None {
		if !pollUntil(5*time.Second, func() bool { return peers[vChild].Stats().Received == total }) {
			t.Errorf("downstream peer %d received %d of %d through the repaired uplink",
				vChild, peers[vChild].Stats().Received, total)
		}
	}

	// Recovery must have come from the repair path, not a tree re-join.
	fs := peers[victim].FlowStats()
	if fs.StallPulls == 0 {
		t.Errorf("victim never pulled from its repair path: %+v", fs)
	}
	if got := peers[victim].View().ParentID(); got != vParent {
		t.Errorf("victim re-parented %d → %d; repair should not touch the tree", vParent, got)
	}
	if oc := peers[victim].Stats().OrphanCount; oc != 0 {
		t.Errorf("victim orphaned %d times; link kill must not orphan", oc)
	}
	served := int64(0)
	for _, p := range c.Peers {
		served += p.FlowStats().RetransmitsServed
	}
	if served == 0 {
		t.Error("no peer served a retransmit; recovery path unexercised")
	}
}

// TestUDPLinkKillRepair is TestClusterLinkKillRepair on real sockets: a
// degree-2 tree of UDP peers streams with flow control on, then the send
// filter on the victim's parent silently drops stream data toward the
// victim only. The victim must still end up with ≥95% of the stream,
// through retransmits served over its repair path, under the same parent.
func TestUDPLinkKillRepair(t *testing.T) {
	c := bootUDP(t, 6, 2, &flow.Config{
		RateChunksPerS: 20000,
		TickS:          0.01,
		StallS:         0.05,
		NackDelayS:     0.01,
		AckEvery:       4,
		FECGroup:       8,
		PullWidth:      64,
	})

	// Victim: the first joiner parked under another joiner; the filter
	// goes on that parent's socket.
	var victim *Peer
	var parentTr *transport.UDP
	var vParent overlay.NodeID
	for _, p := range c.peers {
		if pa := p.View().ParentID(); pa != 0 && pa != overlay.None {
			victim, vParent = p, pa
			break
		}
	}
	if victim == nil {
		t.Fatal("no depth-2 peer in a degree-2 tree of 6 joiners")
	}
	for i, p := range c.peers {
		if p.ID() == vParent {
			parentTr = c.trs[i+1]
		}
	}

	// The longest stretch, from the kill onward, in which the victim's
	// count stood still is the outage the repair path had to bridge.
	var lastRecv int64
	var outage time.Duration
	lastAdvance := time.Now()
	observe := func() {
		if r := victim.Stats().Received; r != lastRecv {
			outage = max(outage, time.Since(lastAdvance))
			lastRecv, lastAdvance = r, time.Now()
		}
	}
	emit := func(from, to int) {
		for seq := from; seq < to; seq++ {
			c.src.EmitChunk(int64(seq))
			time.Sleep(time.Millisecond)
			observe()
		}
	}

	const warm, total = 40, 200
	emit(0, warm)
	if !pollUntil(5*time.Second, func() bool { observe(); return lastRecv == warm }) {
		t.Fatalf("victim %d received %d of %d before link kill", victim.ID(), lastRecv, warm)
	}

	victimID := victim.ID()
	parentTr.SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		return to == victimID && f.Kind == wire.KindMsg && overlay.IsStreamData(f.Msg)
	})
	lastAdvance, outage = time.Now(), 0

	emit(warm, total)
	pollUntil(10*time.Second, func() bool { observe(); return lastRecv == total })
	t.Logf("victim %d under %d: %d of %d chunks, longest outage %v", victimID, vParent, lastRecv, total, outage)

	if lastRecv < total*95/100 {
		t.Errorf("victim recovered %d of %d chunks after link kill (flow stats %+v)", lastRecv, total, victim.FlowStats())
	}
	if got := victim.View().ParentID(); got != vParent {
		t.Errorf("victim re-parented %d → %d; repair should not touch the tree", vParent, got)
	}
	served := c.src.FlowStats().RetransmitsServed
	for _, p := range c.peers {
		served += p.FlowStats().RetransmitsServed
	}
	if served == 0 {
		t.Error("no peer served a retransmit; recovery path unexercised")
	}
}

// TestClusterFlowDelivery reruns the loopback acceptance shape with the
// reliable data plane enabled: a paced, FEC-protected stream must still
// deliver everything exactly once on an intact tree.
func TestClusterFlowDelivery(t *testing.T) {
	fcfg := &flow.Config{
		RateChunksPerS: 20000,
		TickS:          0.01,
		AckEvery:       4,
		FECGroup:       8,
	}
	const (
		nPeers  = 12
		nChunks = 40
	)
	c := NewCluster(ClusterConfig{N: nPeers, MaxDegree: 3, Flow: fcfg})
	defer c.Close()
	if err := c.WaitConnected(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Stream(nChunks, time.Millisecond)
	for _, p := range c.Peers[1:] {
		pp := p
		if !pollUntil(5*time.Second, func() bool { return pp.Stats().Received == nChunks }) {
			t.Errorf("peer %d received %d of %d", pp.ID(), pp.Stats().Received, nChunks)
		}
		if dups := pp.Stats().Dups; dups > nChunks {
			t.Errorf("peer %d saw %d dups for %d chunks", pp.ID(), dups, nChunks)
		}
	}
	// The ack clock must actually be running.
	var acks int64
	for _, p := range c.Peers {
		acks += p.FlowStats().AcksRecv
	}
	if acks == 0 {
		t.Error("no acks received anywhere; flow control inactive")
	}
}
