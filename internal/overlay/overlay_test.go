package overlay

import (
	"slices"
	"testing"

	"vdm/internal/eventq"
	"vdm/internal/flow"
	"vdm/internal/underlay"
)

// rig is a network of bare peers with scriptable hooks, placed on a static
// RTT matrix (ms).
type rig struct {
	sim   *eventq.Sim
	net   *Network
	peers map[NodeID]*testPeer
}

// testPeer wraps a Peer with recording hooks.
type testPeer struct {
	*Peer
	protocolMsgs []Message
	orphanedBy   []NodeID
	orphanHint   []NodeID
}

func (tp *testPeer) HandleProtocol(from NodeID, m Message) {
	tp.protocolMsgs = append(tp.protocolMsgs, m)
}

func (tp *testPeer) OnOrphaned(leaver, hint NodeID) {
	tp.orphanedBy = append(tp.orphanedBy, leaver)
	tp.orphanHint = append(tp.orphanHint, hint)
}

func newRig(t *testing.T, rtt [][]float64) *rig {
	t.Helper()
	sim := eventq.New()
	r := &rig{
		sim:   sim,
		net:   NewNetwork(sim, underlay.NewStatic(rtt), 1),
		peers: make(map[NodeID]*testPeer),
	}
	return r
}

func (r *rig) addPeer(id NodeID, degree int, source bool) *testPeer {
	tp := &testPeer{}
	tp.Peer = NewPeer(r.net, PeerConfig{
		ID:        id,
		Source:    0,
		MaxDegree: degree,
		IsSource:  source,
	})
	tp.Peer.SetHooks(tp)
	r.net.Register(id, tp.Peer)
	r.peers[id] = tp
	return tp
}

// uniformRTT builds an n×n matrix with the given off-diagonal RTT.
func uniformRTT(n int, ms float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = ms
			}
		}
	}
	return m
}

func TestNetworkDeliveryTimingAndCounters(t *testing.T) {
	r := newRig(t, uniformRTT(2, 100)) // 100 ms RTT → 50 ms one way
	a := r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false)
	_ = a

	r.net.Send(0, 1, Ping{Token: 9})
	r.sim.Run(0.049)
	if len(b.protocolMsgs) != 0 && b.Stats().Received != 0 {
		t.Fatal("message arrived before one-way delay")
	}
	r.sim.Run(1)
	// b replies Pong automatically; a's prober has no session so it is
	// forwarded to protocol hooks.
	if got := r.net.Counters().Ctrl.Load(); got != 2 {
		t.Fatalf("ctrl count = %d, want 2 (ping+pong)", got)
	}
	if r.net.Counters().Data.Load() != 0 {
		t.Fatal("data counter moved for control traffic")
	}
}

func TestNetworkDropsToUnregistered(t *testing.T) {
	r := newRig(t, uniformRTT(2, 10))
	r.addPeer(0, 1, true)
	if r.net.Send(0, 1, Ping{}) {
		t.Fatal("send to unregistered node reported success")
	}
	if r.net.Counters().Undeliver.Load() != 1 {
		t.Fatalf("undeliver = %d", r.net.Counters().Undeliver.Load())
	}
}

func TestNetworkUnregisterDropsInFlight(t *testing.T) {
	r := newRig(t, uniformRTT(2, 100))
	r.addPeer(0, 1, true)
	b := r.addPeer(1, 1, false)
	r.net.Send(0, 1, InfoRequest{Token: 1})
	r.net.Unregister(1)
	r.sim.Run(1)
	if len(b.protocolMsgs) != 0 {
		t.Fatal("message delivered after unregister")
	}
}

func TestNetworkDataLoss(t *testing.T) {
	rtt := uniformRTT(2, 10)
	r := newRig(t, rtt)
	// Force certain loss on the pair.
	u := r.net.U.(*underlay.Static)
	u.LossP = [][]float64{{0, 1}, {1, 0}}
	r.addPeer(0, 1, true)
	b := r.addPeer(1, 1, false)
	r.net.Send(0, 1, DataChunk{Seq: 1})
	r.sim.Run(1)
	if b.Stats().Received != 0 {
		t.Fatal("chunk survived 100% loss")
	}
	if r.net.Counters().DataDrops.Load() != 1 || r.net.Counters().Data.Load() != 1 {
		t.Fatalf("drop accounting: drops=%d count=%d", r.net.Counters().DataDrops.Load(), r.net.Counters().Data.Load())
	}
	// Control traffic is never dropped.
	r.net.Send(0, 1, Ping{Token: 1})
	r.sim.Run(2)
	if r.net.Counters().Ctrl.Load() < 2 { // ping + pong
		t.Fatal("control message lost")
	}
}

func TestOverheadRatio(t *testing.T) {
	r := newRig(t, uniformRTT(2, 10))
	r.addPeer(0, 1, true)
	r.addPeer(1, 1, false)
	if r.net.Overhead() != 0 {
		t.Fatal("overhead before any data should be 0")
	}
	r.net.Send(0, 1, DataChunk{Seq: 0})
	r.net.Send(0, 1, DataChunk{Seq: 1})
	r.net.Send(0, 1, Ping{Token: 1})
	if got := r.net.Overhead(); got != 0.5 {
		t.Fatalf("overhead = %v, want 0.5", got)
	}
}

func TestProberMeasuresRTT(t *testing.T) {
	rtt := [][]float64{
		{0, 40, 120},
		{40, 0, 60},
		{120, 60, 0},
	}
	r := newRig(t, rtt)
	a := r.addPeer(0, 2, true)
	r.addPeer(1, 2, false)
	r.addPeer(2, 2, false)

	var got ProbeResult
	a.Prober().Launch([]NodeID{1, 2}, 2.0, func(res ProbeResult) { got = res })
	r.sim.Run(5)
	if got == nil {
		t.Fatal("probe never completed")
	}
	if len(got) != 2 {
		t.Fatalf("probe results %v", got)
	}
	d1, _ := got.Get(1)
	d2, _ := got.Get(2)
	if d1 != 40 || d2 != 120 {
		t.Fatalf("measured %v, want RTTs 40/120", got)
	}
	// Reply order: the nearer target answers first.
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("results %v, want reply order 1, 2", got)
	}
}

func TestProberPartialTimeout(t *testing.T) {
	r := newRig(t, uniformRTT(3, 50))
	a := r.addPeer(0, 2, true)
	r.addPeer(1, 2, false)
	// Node 2 never registered: its ping is lost.
	var got ProbeResult
	a.Prober().Launch([]NodeID{1, 2}, 1.0, func(res ProbeResult) { got = res })
	r.sim.Run(5)
	if got == nil {
		t.Fatal("probe never completed")
	}
	if d, ok := got.Get(1); len(got) != 1 || !ok || d != 50 {
		t.Fatalf("partial results %v", got)
	}
}

func TestProberEmptyTargets(t *testing.T) {
	r := newRig(t, uniformRTT(2, 10))
	a := r.addPeer(0, 1, true)
	done := false
	a.Prober().Launch(nil, 1.0, func(res ProbeResult) { done = len(res) == 0 })
	r.sim.Run(1)
	if !done {
		t.Fatal("empty probe did not complete")
	}
}

func TestProberSkipsSelfAndDuplicates(t *testing.T) {
	r := newRig(t, uniformRTT(3, 30))
	a := r.addPeer(0, 2, true)
	r.addPeer(1, 2, false)
	var got ProbeResult
	a.Prober().Launch([]NodeID{0, 1, 1}, 1.0, func(res ProbeResult) { got = res })
	r.sim.Run(3)
	if len(got) != 1 {
		t.Fatalf("results %v: self/dup not deduplicated", got)
	}
}

// TestProberPingsEachTargetOnce: a target list with repeats and the peer
// itself sends one Ping per distinct other target, and the result holds
// each answer once.
func TestProberPingsEachTargetOnce(t *testing.T) {
	r := newRig(t, uniformRTT(3, 30))
	a := r.addPeer(0, 2, true)
	r.addPeer(1, 2, false)
	r.addPeer(2, 2, false)
	var got ProbeResult
	a.Prober().Launch([]NodeID{2, 0, 1, 2, 0, 1, 2}, 1.0, func(res ProbeResult) { got = slices.Clone(res) })
	r.sim.Run(3)
	if n := r.net.Counters().Ctrl.Load(); n != 4 {
		t.Fatalf("%d control messages, want 2 pings and 2 pongs", n)
	}
	ids := []NodeID{got[0].ID, got[1].ID}
	slices.Sort(ids)
	if len(got) != 2 || !slices.Equal(ids, []NodeID{1, 2}) {
		t.Fatalf("results %v, want 1 and 2 once each", got)
	}
}

// TestProberTimeoutEndsRoundOnce: with one target silent the round ends at
// its timeout with the answer it has, exactly once, and a Pong that
// arrives after that belongs to no round: it goes to the protocol hooks.
func TestProberTimeoutEndsRoundOnce(t *testing.T) {
	r := newRig(t, uniformRTT(3, 50))
	a := r.addPeer(0, 2, true)
	r.addPeer(1, 2, false)
	calls := 0
	var got ProbeResult
	a.Prober().Launch([]NodeID{1, 2}, 1.0, func(res ProbeResult) {
		calls++
		got = slices.Clone(res)
	})
	r.sim.Run(0.5)
	if calls != 0 {
		t.Fatal("the round ended before its timeout with a target silent")
	}
	r.sim.Run(1.5)
	if calls != 1 || len(got) != 1 || got[0] != (Probe{ID: 1, D: 50}) {
		t.Fatalf("%d callbacks with %v, want one with {1 50}", calls, got)
	}
	r.addPeer(2, 2, false)
	r.net.Send(2, 0, Pong{Token: 1})
	r.sim.Run(3)
	if calls != 1 || len(a.protocolMsgs) != 1 {
		t.Fatalf("%d callbacks, %d messages to the hooks after a late Pong; want 1 and 1", calls, len(a.protocolMsgs))
	}
}

// TestProberLaunchInCallbackKeepsResult: a round launched from a finished
// round's callback reuses the finished round's session, and must neither
// write into the result the callback is reading nor inherit its entries.
func TestProberLaunchInCallbackKeepsResult(t *testing.T) {
	rtt := [][]float64{
		{0, 40, 120},
		{40, 0, 60},
		{120, 60, 0},
	}
	r := newRig(t, rtt)
	a := r.addPeer(0, 2, true)
	r.addPeer(1, 2, false)
	r.addPeer(2, 2, false)
	var first, second ProbeResult
	a.Prober().Launch([]NodeID{1, 2}, 2.0, func(res ProbeResult) {
		before := slices.Clone(res)
		a.Prober().Launch([]NodeID{2}, 2.0, func(res ProbeResult) { second = slices.Clone(res) })
		a.Prober().Launch(nil, 2.0, func(ProbeResult) {})
		if !slices.Equal(res, before) {
			t.Errorf("result changed under its callback: %v, was %v", res, before)
		}
		first = before
	})
	r.sim.Run(5)
	if len(first) != 2 {
		t.Fatalf("first round %v, want two answers", first)
	}
	if len(second) != 1 || second[0] != (Probe{ID: 2, D: 120}) {
		t.Fatalf("second round %v, want only {2 120}", second)
	}
}

// TestProbeResultClosest: the closest of the given ids by distance, ties
// to the lower id, unmeasured ids skipped, None when none was measured;
// Put overwrites in place.
func TestProbeResultClosest(t *testing.T) {
	var r ProbeResult
	r.Put(7, 30)
	r.Put(4, 20)
	r.Put(9, 20)
	r.Put(7, 10)
	if len(r) != 3 {
		t.Fatalf("%v: Put appended an id it already held", r)
	}
	for _, c := range []struct {
		ids  []NodeID
		want NodeID
	}{
		{[]NodeID{7, 4, 9}, 7},
		{[]NodeID{9, 4}, 4},
		{[]NodeID{4, 9}, 4},
		{[]NodeID{3, 9}, 9},
		{[]NodeID{3}, None},
		{nil, None},
	} {
		if got, _ := r.Closest(c.ids); got != c.want {
			t.Fatalf("Closest(%v) = %d, want %d", c.ids, got, c.want)
		}
	}
}

// TestRepairCandidateSkipsParent: the repair neighbour is the closest
// offered peer by (distance, id) other than the parent, whatever the order
// of the offers.
func TestRepairCandidateSkipsParent(t *testing.T) {
	r := newRig(t, uniformRTT(2, 10))
	p := NewPeer(r.net, PeerConfig{ID: 1, Source: 0, MaxDegree: 2, Flow: &flow.Config{}})
	p.parent = 5
	offers := []Probe{{ID: 5, D: 10}, {ID: 8, D: 30}, {ID: 6, D: 20}, {ID: 3, D: 30}, {ID: 4, D: 20}, {ID: 1, D: 1}}
	var permute func(k int)
	permute = func(k int) {
		if k == len(offers) {
			p.flow.repairCand = None
			for _, o := range offers {
				p.OfferRepairCandidate(o.ID, o.D)
			}
			if got := p.FlowStats().RepairNeighbor; got != 4 {
				t.Fatalf("offers %v: repair neighbour %d, want 4", offers, got)
			}
			return
		}
		for i := k; i < len(offers); i++ {
			offers[k], offers[i] = offers[i], offers[k]
			permute(k + 1)
			offers[k], offers[i] = offers[i], offers[k]
		}
	}
	permute(0)
}

func TestConnRequestChildAcceptAndDegree(t *testing.T) {
	r := newRig(t, uniformRTT(4, 20))
	s := r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false)
	c := r.addPeer(2, 2, false)
	d := r.addPeer(3, 2, false)

	send := func(from *testPeer, tok int) {
		r.net.Send(from.ID(), 0, ConnRequest{Token: tok, Kind: ConnChild, Dist: 20})
	}
	send(b, 1)
	send(c, 2)
	send(d, 3)
	r.sim.Run(1)

	if len(s.ChildIDs()) != 2 {
		t.Fatalf("source children %v, degree 2", s.ChildIDs())
	}
	// The two earliest got accepted; the third got a rejection with the
	// children list.
	var rejected *testPeer
	for _, tp := range []*testPeer{b, c, d} {
		for _, m := range tp.protocolMsgs {
			if cr, ok := m.(ConnResponse); ok && !cr.Accepted {
				rejected = tp
				if len(cr.Children) != 2 {
					t.Fatalf("rejection children %v", cr.Children)
				}
			}
		}
	}
	if rejected == nil {
		t.Fatal("no peer was rejected at degree limit")
	}
}

func TestConnResponseCarriesRootPath(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false)
	r.net.Send(1, 0, ConnRequest{Token: 5, Kind: ConnChild, Dist: 20})
	r.sim.Run(1)
	var resp *ConnResponse
	for _, m := range b.protocolMsgs {
		if cr, ok := m.(ConnResponse); ok {
			resp = &cr
		}
	}
	if resp == nil || !resp.Accepted {
		t.Fatal("no acceptance")
	}
	if len(resp.RootPath) != 1 || resp.RootPath[0] != 0 {
		t.Fatalf("root path %v, want [0]", resp.RootPath)
	}
}

func TestConnRequestLoopRefused(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false)
	c := r.addPeer(2, 2, false)
	// Wire 0 -> 1 -> 2 by hand.
	b.ApplyConnect(0, 20, []NodeID{})
	r.peers[0].Peer.HandleMessage(1, ConnRequest{Token: 1, Kind: ConnChild, Dist: 20})
	c.ApplyConnect(1, 20, []NodeID{0, 1})
	b.Peer.HandleMessage(2, ConnRequest{Token: 2, Kind: ConnChild, Dist: 20})
	r.sim.Run(1)

	// Now node 1 asks its own descendant 2 to become its parent: refused.
	c.protocolMsgs = nil
	r.net.Send(1, 2, ConnRequest{Token: 3, Kind: ConnChild, Dist: 20})
	// Deliver to c... c is the handler; the request travels via network.
	r.sim.Run(2)
	// c's response lands in b's protocol messages.
	var resp *ConnResponse
	for _, m := range b.protocolMsgs {
		if cr, ok := m.(ConnResponse); ok && cr.Token == 3 {
			resp = &cr
		}
	}
	if resp == nil {
		t.Fatal("no response to loop request")
	}
	if resp.Accepted {
		t.Fatal("descendant accepted its ancestor as a child (loop)")
	}
}

func TestSpliceTransfersChildren(t *testing.T) {
	r := newRig(t, uniformRTT(4, 20))
	s := r.addPeer(0, 3, true)
	c1 := r.addPeer(1, 2, false)
	c2 := r.addPeer(2, 2, false)
	n := r.addPeer(3, 2, false)

	// Wire 0 -> {1, 2}.
	for _, tp := range []*testPeer{c1, c2} {
		r.net.Send(tp.ID(), 0, ConnRequest{Token: int(tp.ID()), Kind: ConnChild, Dist: 20})
	}
	r.sim.Run(1)
	c1.ApplyConnect(0, 20, []NodeID{})
	c2.ApplyConnect(0, 20, []NodeID{})

	// n splices between 0 and both children.
	r.net.Send(3, 0, ConnRequest{Token: 9, Kind: ConnSplice, Dist: 15, Adopt: []NodeID{1, 2}})
	r.sim.Run(2)

	var resp *ConnResponse
	for _, m := range n.protocolMsgs {
		if cr, ok := m.(ConnResponse); ok && cr.Token == 9 {
			resp = &cr
		}
	}
	if resp == nil || !resp.Accepted {
		t.Fatal("splice refused")
	}
	if len(resp.Adopted) != 2 {
		t.Fatalf("adopted %v", resp.Adopted)
	}
	kids := s.ChildIDs()
	if len(kids) != 1 || kids[0] != 3 {
		t.Fatalf("source children after splice: %v", kids)
	}

	// n completes the adoption protocol.
	n.ApplyConnect(0, 15, resp.RootPath)
	for _, c := range resp.Adopted {
		n.AdoptChild(c, 20, 0, 9)
	}
	r.sim.Run(3)
	if c1.ParentID() != 3 || c2.ParentID() != 3 {
		t.Fatalf("adoptees' parents: %d, %d", c1.ParentID(), c2.ParentID())
	}
	if c1.Grandparent() != 0 {
		t.Fatalf("adoptee grandparent %d, want 0", c1.Grandparent())
	}
	if len(n.ChildIDs()) != 2 {
		t.Fatalf("adopter children %v", n.ChildIDs())
	}
}

func TestParentChangeRefusedOnStaleOldParent(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false)
	n := r.addPeer(2, 2, false)
	b.ApplyConnect(0, 20, []NodeID{})
	n.ApplyConnect(0, 20, []NodeID{})

	// n claims b's old parent was 7 — stale: refused, and n releases the
	// optimistically-added child slot on the ack.
	n.AdoptChild(1, 20, 7, 1)
	if len(n.ChildIDs()) != 1 {
		t.Fatal("adopter should optimistically hold the child")
	}
	r.sim.Run(1)
	if b.ParentID() != 0 {
		t.Fatal("stale parent change applied")
	}
	if len(n.ChildIDs()) != 0 {
		t.Fatal("refused adoption did not release the child slot")
	}
}

func TestPathUpdatePropagatesDownTree(t *testing.T) {
	r := newRig(t, uniformRTT(4, 20))
	r.addPeer(0, 2, true)
	a := r.addPeer(1, 2, false)
	b := r.addPeer(2, 2, false)
	c := r.addPeer(3, 2, false)
	// Chain 0 -> 1 -> 2 -> 3 wired by hand, with stale paths below 1.
	a.ApplyConnect(0, 20, []NodeID{})
	a.Peer.PutChild(2, 20)
	b.parent = 1
	b.Peer.PutChild(3, 20)
	c.parent = 2

	// A path refresh at node 1 must reach node 3.
	a.setRootPath([]NodeID{0})
	r.sim.Run(1)
	got := c.RootPath()
	want := []NodeID{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("root path %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("root path %v, want %v", got, want)
		}
	}
	if c.Grandparent() != 1 {
		t.Fatalf("grandparent %d, want 1", c.Grandparent())
	}
}

func TestLeaveNotifiesChildrenWithGrandparentHint(t *testing.T) {
	r := newRig(t, uniformRTT(4, 20))
	r.addPeer(0, 2, true)
	p := r.addPeer(1, 2, false)
	c := r.addPeer(2, 2, false)
	p.ApplyConnect(0, 20, []NodeID{})
	p.Peer.PutChild(2, 20)
	c.ApplyConnect(1, 20, []NodeID{0})

	p.Leave()
	r.sim.Run(1)
	if c.Connected() {
		t.Fatal("orphan still connected")
	}
	if len(c.orphanedBy) != 1 || c.orphanedBy[0] != 1 {
		t.Fatalf("orphan callback %v", c.orphanedBy)
	}
	if c.orphanHint[0] != 0 {
		t.Fatalf("grandparent hint %v, want 0", c.orphanHint[0])
	}
	if c.Stats().OrphanCount != 1 {
		t.Fatal("orphan count not recorded")
	}
	if p.Alive() {
		t.Fatal("left peer still alive")
	}
	// Leave is idempotent.
	p.Leave()
}

func TestDataForwardingAndDedup(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	s := r.addPeer(0, 2, true)
	a := r.addPeer(1, 2, false)
	b := r.addPeer(2, 2, false)
	// 0 -> 1 -> 2.
	a.ApplyConnect(0, 20, []NodeID{})
	s.Peer.PutChild(1, 20)
	b.ApplyConnect(1, 20, []NodeID{0})
	a.Peer.PutChild(2, 20)

	for seq := int64(0); seq < 10; seq++ {
		s.EmitChunk(seq)
	}
	// A duplicate re-emission must not double-count downstream.
	s.Peer.window.Init(flow.DefaultWindowBits, flow.DefaultBackfill)
	s.EmitChunk(3)
	r.sim.Run(5)

	if a.Stats().Received != 10 {
		t.Fatalf("mid node received %d, want 10", a.Stats().Received)
	}
	if a.Stats().Dups != 1 {
		t.Fatalf("mid node dups %d, want 1", a.Stats().Dups)
	}
	if b.Stats().Received != 10 {
		t.Fatalf("leaf received %d, want 10", b.Stats().Received)
	}
	if got := a.Stats().Forwarded; got != 10 {
		t.Fatalf("forwarded %d, want 10", got)
	}
}

func TestDeadChildReapedOnForward(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	s := r.addPeer(0, 2, true)
	r.addPeer(1, 2, false)
	s.Peer.PutChild(1, 20)
	r.net.Unregister(1) // vanished without notice
	s.EmitChunk(0)
	if len(s.ChildIDs()) != 0 {
		t.Fatal("dead child not reaped on transport failure")
	}
}

func TestEmitChunkPanicsOffSource(t *testing.T) {
	r := newRig(t, uniformRTT(2, 20))
	b := r.addPeer(1, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.EmitChunk(0)
}

func TestApplyConnectStatsAndReconnect(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false)
	r.sim.Run(1) // t = 1

	b.MarkJoinStart()
	r.sim.At(2, func() { b.ApplyConnect(0, 20, []NodeID{}) })
	r.sim.Run(3)
	st := b.Stats()
	if st.Startup != 1 {
		t.Fatalf("startup = %v, want 1", st.Startup)
	}
	if st.MemberSince != 2 {
		t.Fatalf("member since %v", st.MemberSince)
	}

	// Orphaned at t=5, reconnected at t=7.
	r.sim.At(5, func() { b.HandleMessage(0, LeaveNotify{GrandparentHint: None}) })
	r.sim.At(7, func() { b.ApplyConnect(0, 20, []NodeID{}) })
	r.sim.Run(8)
	if len(st.Reconnects) != 1 || st.Reconnects[0] != 2 {
		t.Fatalf("reconnects %v, want [2]", st.Reconnects)
	}
	if st.Startup != 1 {
		t.Fatal("startup overwritten by reconnection")
	}
}

func TestSwitchingRefusesConnRequests(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false)
	n := r.addPeer(2, 2, false)
	b.ApplyConnect(0, 20, []NodeID{})
	b.BeginSwitch()
	r.net.Send(2, 1, ConnRequest{Token: 4, Kind: ConnChild, Dist: 20})
	r.sim.Run(1)
	for _, m := range n.protocolMsgs {
		if cr, ok := m.(ConnResponse); ok && cr.Accepted {
			t.Fatal("switching node accepted a child")
		}
	}
	b.EndSwitch()
	r.net.Send(2, 1, ConnRequest{Token: 5, Kind: ConnChild, Dist: 20})
	r.sim.Run(2)
	ok := false
	for _, m := range n.protocolMsgs {
		if cr, okc := m.(ConnResponse); okc && cr.Accepted {
			ok = true
		}
	}
	if !ok {
		t.Fatal("request refused after switch ended")
	}
}

func TestIdempotentReconnectRequest(t *testing.T) {
	r := newRig(t, uniformRTT(2, 20))
	s := r.addPeer(0, 1, true)
	b := r.addPeer(1, 1, false)
	r.net.Send(1, 0, ConnRequest{Token: 1, Kind: ConnChild, Dist: 20})
	r.sim.Run(1)
	// Retry (e.g. response believed lost): still accepted, no double slot.
	r.net.Send(1, 0, ConnRequest{Token: 2, Kind: ConnChild, Dist: 25})
	r.sim.Run(2)
	if len(s.ChildIDs()) != 1 {
		t.Fatalf("children %v after idempotent retry", s.ChildIDs())
	}
	if d, _ := s.ChildDist(1); d != 25 {
		t.Fatalf("distance not refreshed: %v", d)
	}
	accepts := 0
	for _, m := range b.protocolMsgs {
		if cr, ok := m.(ConnResponse); ok && cr.Accepted {
			accepts++
		}
	}
	if accepts != 2 {
		t.Fatalf("accepts = %d, want 2", accepts)
	}
}

func TestDisconnectedNodeRefusesChildren(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	r.addPeer(0, 2, true)
	b := r.addPeer(1, 2, false) // never connected
	n := r.addPeer(2, 2, false)
	r.net.Send(2, 1, ConnRequest{Token: 1, Kind: ConnChild, Dist: 20})
	r.sim.Run(1)
	for _, m := range n.protocolMsgs {
		if cr, ok := m.(ConnResponse); ok && cr.Accepted {
			t.Fatal("disconnected node accepted a child")
		}
	}
	_ = b
}

func TestInfoResponseContents(t *testing.T) {
	r := newRig(t, uniformRTT(3, 20))
	s := r.addPeer(0, 3, true)
	b := r.addPeer(1, 2, false)
	s.Peer.PutChild(2, 42)
	r.net.Send(1, 0, InfoRequest{Token: 77})
	r.sim.Run(1)
	var ir *InfoResponse
	for _, m := range b.protocolMsgs {
		if v, ok := m.(InfoResponse); ok {
			ir = &v
		}
	}
	if ir == nil || ir.Token != 77 {
		t.Fatal("no info response")
	}
	if len(ir.Children) != 1 || ir.Children[0].ID != 2 || ir.Children[0].Dist != 42 {
		t.Fatalf("children %v", ir.Children)
	}
	if ir.Free != 2 || !ir.Connected {
		t.Fatalf("free=%d connected=%v", ir.Free, ir.Connected)
	}
}
