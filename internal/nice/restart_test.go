package nice

import (
	"slices"
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
)

// TestJoinBacksOffAndRecovers: the rendezvous point is unreachable at join
// time; the node restarts, exhausts its attempts, backs off, and connects
// once the source returns.
func TestJoinBacksOffAndRecovers(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0},
	})
	n := r.nodes[1]
	src := r.nodes[0]

	r.Net.Unregister(0)
	r.Sim.At(1, func() { n.StartJoin() })
	r.Sim.At(12, func() { r.Net.Register(0, src) })
	r.Run(40)

	if !n.Connected() || n.ParentID() != 0 {
		t.Fatalf("connected=%v parent=%d after the source returned", n.Connected(), n.ParentID())
	}
	if st := n.Base().Stats(); st.Startup < 10 {
		t.Fatalf("startup %v s should include the outage", st.Startup)
	}
}

// TestOrphanDuringReassignRecovers: a node loses its leader while its
// cluster-split move is in flight (its ConnRequest to the new leader is
// out); the move is abandoned with the switch mark cleared, so the rejoined
// node accepts children again.
func TestOrphanDuringReassignRecovers(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 12, Y: 0}, {X: 0, Y: 400}, {X: 11, Y: 0}, {X: 13, Y: 0},
	})
	c := r.nodes[2]
	r.joinAll(1, 3) // leader P=1 and the far new leader T=3 under the source
	now := r.Sim.Now()
	r.Sim.At(now+1, func() {
		// Wire C and D=4 under P by hand: a cluster of K members, which
		// P's heartbeat neither splits nor merges.
		for _, id := range []overlay.NodeID{2, 4} {
			r.nodes[id].MarkJoinStart()
			r.nodes[1].HandleMessage(id, overlay.ConnRequest{Token: 99, Kind: overlay.ConnChild, Dist: 2})
			r.nodes[id].ApplyConnect(1, 2, []overlay.NodeID{0, 1})
		}
	})
	// P moves C under T: C probes T (0.4 s round trip), then asks it.
	r.Sim.At(now+2, func() { c.HandleMessage(1, overlay.Reassign{To: 3}) })
	r.Run(now + 2.6)
	if !c.Switching() {
		t.Fatal("precondition: the move's ConnRequest should be in flight")
	}
	r.nodes[1].Leave()
	r.Run(now + 20)

	if !c.Connected() || c.Switching() {
		t.Fatalf("after rejoining: connected=%v switching=%v", c.Connected(), c.Switching())
	}
	c.HandleMessage(5, overlay.ConnRequest{Token: 1, Kind: overlay.ConnChild, Dist: 1})
	if !slices.Contains(c.ChildIDs(), 5) {
		t.Fatalf("rejoined node refused a child: children %v", c.ChildIDs())
	}
}
