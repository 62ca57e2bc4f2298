package btp

import (
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
	"vdm/internal/rng"
)

type btpRig struct {
	*protocoltest.Rig
	nodes map[overlay.NodeID]*Node
}

func newRig(t *testing.T, points []protocoltest.Point, degrees []int) *btpRig {
	t.Helper()
	r := &btpRig{Rig: protocoltest.New(points), nodes: map[overlay.NodeID]*Node{}}
	for i := range points {
		deg := 4
		if degrees != nil {
			deg = degrees[i]
		}
		n := New(r.Net, r.PeerConfig(overlay.NodeID(i), deg), rng.New(int64(i)+3))
		n.switchPeriodS = 1e9
		r.Net.Register(overlay.NodeID(i), n)
		r.nodes[overlay.NodeID(i)] = n
	}
	return r
}

func (r *btpRig) joinAll(order ...overlay.NodeID) {
	for i, id := range order {
		id := id
		r.Sim.At(float64(i)*10, func() { r.nodes[id].StartJoin() })
	}
	r.Run(float64(len(order))*10 + 30)
}

func (r *btpRig) parentOf(t *testing.T, id overlay.NodeID) overlay.NodeID {
	t.Helper()
	n := r.nodes[id]
	if !n.Connected() {
		t.Fatalf("node %d not connected", id)
	}
	return n.ParentID()
}

// TestJoinAttachesAtRoot: BTP newcomers connect to the root directly.
func TestJoinAttachesAtRoot(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 31, Y: 0},
	}, nil)
	r.joinAll(1, 2)
	if r.parentOf(t, 1) != 0 || r.parentOf(t, 2) != 0 {
		t.Fatalf("parents %d, %d — both should hang off the root", r.parentOf(t, 1), r.parentOf(t, 2))
	}
}

// TestJoinDescendsWhenRootFull: a saturated root redirects down the tree.
func TestJoinDescendsWhenRootFull(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 31, Y: 0},
	}, []int{1, 4, 4})
	r.joinAll(1, 2)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("parent = %d, want the root's child", got)
	}
}

// TestSiblingSwitch reproduces figure 2.7: a node moves under a sibling
// that is closer than its current parent.
func TestSiblingSwitch(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 31, Y: 0},
	}, nil)
	b := r.nodes[2]
	b.switchPeriodS = 20
	r.joinAll(1, 2) // both attach at the root; the switch timer is armed
	r.Run(r.Sim.Now() + 60)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("parent after sibling switch = %d, want the sibling", got)
	}
	if b.Base().Stats().ParentSwitch < 1 {
		t.Fatal("switch not recorded")
	}
}

// TestNoMutualSwitchLoop: two close siblings switching simultaneously must
// not adopt each other (the classic BTP loop) — the switching guard in the
// peer base refuses requests mid-switch.
func TestNoMutualSwitchLoop(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 30.5, Y: 0},
	}, nil)
	r.nodes[1].switchPeriodS = 20
	r.nodes[2].switchPeriodS = 20
	r.joinAll(1, 2)
	r.Run(r.Sim.Now() + 200)
	p1, p2 := r.nodes[1].ParentID(), r.nodes[2].ParentID()
	if p1 == 2 && p2 == 1 {
		t.Fatal("mutual switch created a loop")
	}
	// Whatever happened, both must still reach the root.
	for _, id := range []overlay.NodeID{1, 2} {
		cur := id
		for steps := 0; ; steps++ {
			if steps > 4 {
				t.Fatalf("node %d detached from root (p1=%d p2=%d)", id, p1, p2)
			}
			p := r.nodes[cur].ParentID()
			if p == 0 {
				break
			}
			if p == overlay.None {
				t.Fatalf("node %d orphaned", id)
			}
			cur = p
		}
	}
}

// TestReconnectAtRoot: BTP orphans rejoin at the root.
func TestReconnectAtRoot(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 31, Y: 0},
	}, []int{1, 4, 4})
	r.joinAll(1, 2) // chain: 0 -> 1 -> 2
	if r.parentOf(t, 2) != 1 {
		t.Fatal("precondition failed")
	}
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { r.nodes[1].Leave() })
	r.Run(now + 10)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("orphan's parent = %d, want root", got)
	}
}
