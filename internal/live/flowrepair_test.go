package live

import (
	"sync"
	"testing"
	"time"

	"vdm/internal/flow"
	"vdm/internal/overlay"
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

// linkKillFlow is the reliable data plane both link-kill tests stream
// with, at the shipped timers: the victim detects its dead uplink after
// the stall timeout (0.25 s).
var linkKillFlow = &flow.Config{RateChunksPerS: 20000, FECGroup: 8}

// TestClusterLinkKillRepair is the reliability acceptance test: a
// degree-1 chain 0→a→b→c streams with flow control and FEC on, then the
// send filter on a's socket silently stops carrying stream data to b
// (control stays up, so the tree never re-joins). The victim b must detect
// the stalled uplink and pull the stream from its repair path — the
// grandparent/source — and recover all of it under the same parent, and
// its own child c must keep receiving everything through it.
func TestClusterLinkKillRepair(t *testing.T) {
	c := bootCluster(t, ClusterConfig{N: 4, MaxDegree: 1, Flow: linkKillFlow})

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
	hasChild := false
	for _, pa := range parentOf {
		hasChild = hasChild || pa == victim
	}
	if !hasChild {
		t.Fatalf("depth-2 peer %d has no child in a 4-peer chain; parents = %v", victim, parentOf)
	}
	vParent := parentOf[victim]
	killLinkAndRepair(t, c, victim, func() {
		if fs := c.Peers[vParent].FlowStats(); fs.ParityRecv == 0 {
			t.Errorf("first-hop peer %d saw no FEC parity (ParityRecv = 0)", vParent)
		}
	})
}

// TestUDPLinkKillRepair kills one link inside a branching tree: 7 peers
// under degree 2, the victim a depth-2 peer with a sibling under the same
// parent. Only the parent→victim stream data is dropped, so the victim
// must recover everything through its repair path while its sibling and
// the rest of the tree keep receiving the stream untouched.
func TestUDPLinkKillRepair(t *testing.T) {
	c := bootCluster(t, ClusterConfig{N: 7, MaxDegree: 2, Flow: linkKillFlow})

	// Victim: the first joiner parked under another joiner.
	victim := overlay.None
	for _, p := range c.Peers[1:] {
		if pa := p.View().ParentID(); pa != 0 && pa != overlay.None {
			victim = p.ID()
			break
		}
	}
	if victim == overlay.None {
		t.Fatal("no depth-2 peer in a degree-2 tree of 6 joiners")
	}
	killLinkAndRepair(t, c, victim, nil)
}

// killLinkAndRepair streams a warm-up (then runs warmed, if set), has the
// send filter on the victim's parent silently drop stream data (chunks and
// parity) toward the victim, and streams on. Control and flow signaling
// stay up, so the overlay has no reason to rebuild the tree. It asserts
// the victim recovers the whole stream from its repair path under the same
// parent, never orphaned, and that every other joiner — the victim's
// subtree included — receives the whole stream too.
func killLinkAndRepair(t *testing.T, c *Cluster, victim overlay.NodeID, warmed func()) {
	t.Helper()
	vp := c.Peers[victim]
	vParent := vp.View().ParentID()

	// The longest stretch, from the kill onward, in which the victim's
	// count stood still is the outage the repair path had to bridge.
	var lastRecv int64
	var outage time.Duration
	lastAdvance := time.Now()
	observe := func() {
		if r := vp.Stats().Received; r != lastRecv {
			outage = max(outage, time.Since(lastAdvance))
			lastRecv, lastAdvance = r, time.Now()
		}
	}
	emit := func(from, to int) {
		for seq := from; seq < to; seq++ {
			c.Source().EmitChunk(int64(seq))
			time.Sleep(time.Millisecond)
			observe()
		}
	}

	// Warm stream: establishes the victim's uplink clock and fills the
	// upstream retransmit caches.
	const warm, total = 40, 200
	emit(0, warm)
	if !pollUntil(5*time.Second, func() bool { observe(); return lastRecv == warm }) {
		t.Fatalf("victim %d received %d of %d before link kill", victim, lastRecv, warm)
	}
	if warmed != nil {
		warmed()
	}

	c.Trs[vParent].SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		return to == victim && f.Kind == wire.KindMsg && overlay.IsStreamData(f.Msg)
	})
	lastAdvance, outage = time.Now(), 0

	emit(warm, total)
	if !pollUntil(10*time.Second, func() bool { observe(); return lastRecv == total }) {
		t.Fatalf("victim %d recovered %d of %d chunks after link kill (flow stats %+v)",
			victim, lastRecv, total, vp.FlowStats())
	}
	t.Logf("victim %d under %d: longest outage %v", victim, vParent, outage)
	for _, p := range c.Peers[1:] {
		pp := p
		if !pollUntil(5*time.Second, func() bool { return pp.Stats().Received == total }) {
			t.Errorf("peer %d received %d of %d with link %d→%d killed",
				pp.ID(), pp.Stats().Received, total, vParent, victim)
		}
	}

	// Recovery must have come from the repair path, not a tree re-join.
	if fs := vp.FlowStats(); fs.StallPulls == 0 {
		t.Errorf("victim never pulled from its repair path: %+v", fs)
	}
	if got := vp.View().ParentID(); got != vParent {
		t.Errorf("victim re-parented %d → %d; repair should not touch the tree", vParent, got)
	}
	if oc := vp.Stats().OrphanCount; oc != 0 {
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

// TestClusterBurstLossRepairedByNack loses, once, the five consecutive
// chunk frames toward one child that one coalescer datagram carries when
// the stream runs at 256-byte chunks: on a real link one lost datagram now
// loses up to five chunks of one FEC group, which the group's single XOR
// parity cannot repair. The child must still receive every chunk, through
// NACK-driven retransmission. The benchmark's loss is per frame, so it
// never produces this burst.
func TestClusterBurstLossRepairedByNack(t *testing.T) {
	fcfg := &flow.Config{RateChunksPerS: 20000, FECGroup: 8}
	const (
		nChunks = 48
		burstLo = 16 // the first seq of an FEC group of 8
		burst   = 5
	)
	c := bootCluster(t, ClusterConfig{N: 7, MaxDegree: 2, Flow: fcfg})
	victim := overlay.None
	for _, p := range c.Peers[1:] {
		if p.View().ParentID() == 0 {
			victim = p.ID()
			break
		}
	}
	if victim == overlay.None {
		t.Fatal("no child of the source")
	}

	var mu sync.Mutex
	dropped := map[int64]bool{}
	c.Trs[0].SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		ch, ok := f.Msg.(overlay.DataChunk)
		if to != victim || !ok || ch.Seq < burstLo || ch.Seq >= burstLo+burst {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if dropped[ch.Seq] {
			return false // the retransmission goes through
		}
		dropped[ch.Seq] = true
		return true
	})
	for seq := 0; seq < nChunks; seq++ {
		c.Source().EmitData(overlay.DataChunk{Seq: int64(seq), Payload: make([]byte, 256)})
		time.Sleep(time.Millisecond)
	}
	for _, p := range c.Peers[1:] {
		pp := p
		if !pollUntil(5*time.Second, func() bool { return pp.Stats().Received == nChunks }) {
			t.Errorf("peer %d received %d of %d (flow stats %+v)", pp.ID(), pp.Stats().Received, nChunks, pp.FlowStats())
		}
	}
	mu.Lock()
	if len(dropped) != burst {
		t.Errorf("dropped %d chunk frames toward %d, want %d", len(dropped), victim, burst)
	}
	mu.Unlock()
	if fs := c.Peers[victim].FlowStats(); fs.NacksSent == 0 {
		t.Errorf("victim %d sent no NACK: %+v", victim, fs)
	}
	if served := c.Source().FlowStats().RetransmitsServed; served < burst {
		t.Errorf("source served %d retransmits, want at least the %d lost chunks", served, burst)
	}
}

// TestClusterFlowDelivery reruns the loopback acceptance shape with the
// reliable data plane enabled: a paced, FEC-protected stream must still
// deliver everything exactly once on an intact tree.
func TestClusterFlowDelivery(t *testing.T) {
	fcfg := &flow.Config{RateChunksPerS: 20000, FECGroup: 8}
	const (
		nPeers  = 12
		nChunks = 40
	)
	c := bootCluster(t, ClusterConfig{N: nPeers, MaxDegree: 3, Flow: fcfg})
	if err := c.Stream(nChunks, time.Millisecond); err != nil {
		t.Fatal(err)
	}
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

// TestClusterStallPullHorizon pins how far back a stall pull reaches. It
// streams with the benchmark's flow config, so a victim whose uplink dies
// pulls from cum+1 only after more than the stall timeout (0.25 s) of
// silence, the first flow tick past it. Seven peers at degree
// 2 stream 256 B chunks on an open loop; after 1 000 chunks the stream
// data toward a depth-2 peer is dropped and 4 000 more follow. The victim
// must receive all of them without writing one off: a retransmit ring
// shorter than the pull's lag leaves every pull unanswered and the victim
// stuck. The loop runs at 2 400 chunks/s, not the benchmark's 2 000, so
// that the lag is over 600 chunks whatever the tick's phase: at 2 000 it
// falls between 500 and 540, and a 512-chunk ring fails only some runs.
func TestClusterStallPullHorizon(t *testing.T) {
	const (
		rate    = 2400 // chunks per second
		warm    = 1000
		total   = 5000
		payload = 256
	)
	c := bootCluster(t, ClusterConfig{N: 7, MaxDegree: 2, Flow: &flow.Config{RateChunksPerS: -1}})
	victim := overlay.None
	for _, p := range c.Peers[1:] {
		if pa := p.View().ParentID(); pa != 0 && pa != overlay.None {
			victim = p.ID()
			break
		}
	}
	if victim == overlay.None {
		t.Fatal("no depth-2 peer in a degree-2 tree of 6 joiners")
	}
	vp := c.Peers[victim]
	vParent := vp.View().ParentID()

	start := time.Now()
	emit := func(from, to int) {
		for seq := from; seq < to; seq++ {
			if d := time.Until(start.Add(time.Duration(seq) * time.Second / rate)); d > 0 {
				time.Sleep(d)
			}
			c.Source().EmitData(overlay.DataChunk{Seq: int64(seq), Payload: make([]byte, payload)})
		}
	}
	emit(0, warm)
	c.Trs[vParent].SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		return to == victim && f.Kind == wire.KindMsg && overlay.IsStreamData(f.Msg)
	})
	emit(warm, total)
	if !pollUntil(10*time.Second, func() bool { return vp.Stats().Received == total }) {
		t.Fatalf("victim %d under %d received %d of %d with its uplink dead (flow stats %+v)",
			victim, vParent, vp.Stats().Received, total, vp.FlowStats())
	}
	fs := vp.FlowStats()
	if fs.SkippedSeqs != 0 {
		t.Errorf("victim %d wrote off %d chunks: %+v", victim, fs.SkippedSeqs, fs)
	}
	if fs.StallPulls == 0 {
		t.Errorf("victim %d never pulled from its repair path: %+v", victim, fs)
	}
}
