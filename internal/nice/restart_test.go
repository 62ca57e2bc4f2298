package nice

import (
	"testing"

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
