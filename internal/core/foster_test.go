package core

import (
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
)

// TestFosterJoinQuickStartsThenSwitches: a foster join attaches to the
// source immediately, then the directional search moves the node to the
// parent a regular join would have found.
func TestFosterJoinQuickStartsThenSwitches(t *testing.T) {
	// S=(0,0), C=(10,0), N=(25,0): the ideal parent for N is C.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0},
	}, nil)
	n := r.nodes[2]
	n.cfg.FosterJoin = true

	r.joinAll(1)
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { n.StartJoin() })
	// Immediately after one connection round-trip (25 ms RTT) the node
	// must be connected — to the source (the directional search, which
	// takes several round trips, has not finished yet).
	r.Run(now + 1.03)
	if !n.Connected() {
		t.Fatal("foster join did not connect within one round trip")
	}
	if got := n.ParentID(); got != 0 {
		t.Fatalf("foster parent = %d, want source", got)
	}
	startup := n.Base().Stats().Startup
	if startup > 0.2 {
		t.Fatalf("foster startup %v s, want ~one RTT", startup)
	}

	// After the directional search settles, the node sits under C.
	r.Run(now + 10)
	if got := n.ParentID(); got != 1 {
		t.Fatalf("post-foster parent = %d, want the directional parent C", got)
	}
	if n.Base().Stats().ParentSwitch < 1 {
		t.Fatal("no switch recorded for the foster hop")
	}
}

// TestFosterJoinFullSourceFallsBack: when the source has no free degree,
// the foster attempt degrades into the regular join.
func TestFosterJoinFullSourceFallsBack(t *testing.T) {
	// Source degree 1, already holding C=(10,0); N=(25,0).
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0},
	}, []int{1, 4, 4})
	n := r.nodes[2]
	n.cfg.FosterJoin = true
	r.joinAll(1)
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { n.StartJoin() })
	r.Run(now + 15)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("parent = %d, want C via the regular join", got)
	}
}

// TestFosterJoinPromotesWhenSourceOptimal: if the source already is the
// ideal parent, the node promotes its foster slot to a regular one and
// stops occupying beyond-degree capacity.
func TestFosterJoinPromotesWhenSourceOptimal(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 10}, {X: -10, Y: 10},
	}, nil)
	n := r.nodes[2]
	n.cfg.FosterJoin = true
	r.joinAll(1)
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { n.StartJoin() })
	r.Run(now + 15)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("parent = %d, want source", got)
	}
	if n.fostered {
		t.Fatal("node still holds a foster slot")
	}
	src := r.nodes[0]
	if len(src.FosterIDs()) != 0 {
		t.Fatalf("source still lists fosters %v", src.FosterIDs())
	}
	found := false
	for _, c := range src.ChildIDs() {
		if c == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("promoted node missing from the source's regular children")
	}
	_ = overlay.None
}

// TestFosterJoinVacatesFosterSlotOnMove: the foster slot is released when
// the node moves to its directional parent.
func TestFosterJoinVacatesFosterSlotOnMove(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0},
	}, nil)
	n := r.nodes[2]
	n.cfg.FosterJoin = true
	r.joinAll(1)
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { n.StartJoin() })
	r.Run(now + 15)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("parent = %d, want the directional parent", got)
	}
	if n.fostered {
		t.Fatal("node still marked fostered after moving")
	}
	if got := r.nodes[0].FosterIDs(); len(got) != 0 {
		t.Fatalf("source still lists fosters %v", got)
	}
}
