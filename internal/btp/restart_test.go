package btp

import (
	"testing"

	"vdm/internal/protocoltest"
)

// TestJoinBacksOffAndRecovers: BTP's root is unreachable at join time; the
// node restarts with backoff and connects when the root returns.
func TestJoinBacksOffAndRecovers(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0},
	}, nil)
	n := r.nodes[1]
	src := r.nodes[0]

	r.Net.Unregister(0)
	r.Sim.At(1, func() { n.StartJoin() })
	r.Sim.At(12, func() { r.Net.Register(0, src) })
	r.Run(40)

	if !n.Connected() || n.ParentID() != 0 {
		t.Fatalf("connected=%v parent=%d after root returned", n.Connected(), n.ParentID())
	}
}

// TestOrphanDuringSwitchRecovers: a node loses its parent while probing a
// sibling switch; the switch state is abandoned and the rejoin succeeds.
func TestOrphanDuringSwitchRecovers(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 31, Y: 0},
	}, []int{1, 4, 4})
	r.nodes[2].switchPeriodS = 15
	r.joinAll(1, 2) // chain 0 -> 1 -> 2, switch timer armed on 2
	if r.parentOf(t, 2) != 1 {
		t.Fatal("precondition")
	}
	now := r.Sim.Now()
	r.Sim.At(now+14.9, func() { r.nodes[1].Leave() })
	r.Run(now + 40)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("orphan's parent = %d, want root", got)
	}
}
