package hmtp

import (
	"testing"

	"vdm/internal/protocoltest"
)

// TestJoinBacksOffAndRecovers: the source is unreachable at join time; the
// node restarts, exhausts its attempts, backs off, and connects once the
// source returns.
func TestJoinBacksOffAndRecovers(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0},
	}, nil)
	n := r.nodes[1]
	src := r.nodes[0]

	r.Net.Unregister(0)
	r.Sim.At(1, func() { n.StartJoin() })
	// Five attempts × info timeout (2 s) ≈ 10 s, plus the 5 s back-off.
	r.Sim.At(12, func() { r.Net.Register(0, src) })
	r.Run(40)

	if !n.Connected() {
		t.Fatal("node never connected after the source returned")
	}
	if n.ParentID() != 0 {
		t.Fatalf("parent %d", n.ParentID())
	}
	st := n.Base().Stats()
	if st.Startup < 10 {
		t.Fatalf("startup %v s should include the outage", st.Startup)
	}
}

// TestRefineAbortsWhenStartDies: the randomly chosen refinement start
// vanishes; the refinement aborts without touching the tree.
func TestRefineAbortsWhenStartDies(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 12, Y: 0},
	}, nil)
	n := r.nodes[2]
	r.joinAll(1, 2)
	if r.parentOf(t, 2) != 1 {
		t.Fatal("precondition")
	}
	// Fire a refinement by hand at a dead start node.
	now := r.Sim.Now()
	r.Sim.At(now+1, func() {
		r.Net.Unregister(0) // kill the root path's head
		n.Refine(0)
	})
	r.Run(now + 10)
	if n.Joining() {
		t.Fatal("refinement stuck after target death")
	}
	if n.ParentID() != 1 {
		t.Fatalf("tree modified by aborted refinement: parent %d", n.ParentID())
	}
}
