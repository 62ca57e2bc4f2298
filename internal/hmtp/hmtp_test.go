package hmtp

import (
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
	"vdm/internal/rng"
)

type hmtpRig struct {
	*protocoltest.Rig
	nodes map[overlay.NodeID]*Node
}

func newRig(t *testing.T, points []protocoltest.Point, degrees []int) *hmtpRig {
	t.Helper()
	r := &hmtpRig{Rig: protocoltest.New(points), nodes: map[overlay.NodeID]*Node{}}
	for i := range points {
		deg := 4
		if degrees != nil {
			deg = degrees[i]
		}
		r.add(overlay.NodeID(i), deg, Config{RefinePeriodS: 1e9})
	}
	return r
}

func (r *hmtpRig) add(id overlay.NodeID, degree int, cfg Config) *Node {
	n := New(r.Net, r.PeerConfig(id, degree), cfg, rng.New(int64(id)+7))
	r.Net.Register(id, n)
	r.nodes[id] = n
	return n
}

func (r *hmtpRig) joinAll(order ...overlay.NodeID) {
	for i, id := range order {
		id := id
		r.Sim.At(float64(i)*10, func() { r.nodes[id].StartJoin() })
	}
	r.Run(float64(len(order))*10 + 30)
}

func (r *hmtpRig) parentOf(t *testing.T, id overlay.NodeID) overlay.NodeID {
	t.Helper()
	n := r.nodes[id]
	if !n.Connected() {
		t.Fatalf("node %d not connected", id)
	}
	return n.ParentID()
}

// TestJoinDescendsToClosest reproduces figure 2.8's iterative descent:
// the newcomer walks toward the closest node and attaches there.
func TestJoinDescendsToClosest(t *testing.T) {
	// Chain geometry: S=(0,0), A=(10,0) under S, B=(12,0) under A;
	// newcomer N=(13,0) should land under B.
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 12, Y: 0}, {X: 13, Y: 0},
	}, nil)
	r.joinAll(1, 2, 3)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("B's parent = %d, want A", got)
	}
	if got := r.parentOf(t, 3); got != 2 {
		t.Fatalf("N's parent = %d, want B", got)
	}
}

// TestJoinStopsWhenNoChildCloser: descent stops at the first node with no
// strictly closer child.
func TestJoinStopsWhenNoChildCloser(t *testing.T) {
	// S=(0,0), A=(10,0) under S; N=(-5,0) is closer to S than to A.
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: -5, Y: 0},
	}, nil)
	r.joinAll(1, 2)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("N's parent = %d, want source", got)
	}
}

// TestHMTPMissesSpliceVDMCatches encodes the dissertation's Scenario I
// (figure 3.21): a newcomer between the source and an existing child
// attaches to the source under HMTP, leaving the child's longer edge in
// place (until a refinement round), where VDM would splice immediately.
func TestHMTPMissesSpliceVDMCatches(t *testing.T) {
	// S=(0,0), C=(20,0) under S; N=(10,0).
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 10, Y: 0},
	}, nil)
	r.joinAll(1, 2)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("N's parent = %d, want source (HMTP has no Case II)", got)
	}
	if got := r.parentOf(t, 1); got != 0 {
		t.Fatalf("C's parent = %d, want source still", got)
	}
}

// TestDegreeFullFallsToNextChild: a saturated target redirects the
// newcomer down the tree.
func TestDegreeFullFallsToNextChild(t *testing.T) {
	// Source degree 1 with child A; N closer to S than to A still must
	// end up under A.
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 10}, {X: -1, Y: -1},
	}, []int{1, 4, 4})
	r.joinAll(1, 2)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("N's parent = %d, want the only child", got)
	}
}

// TestRefinementSwitchesToCloserPeer: the mandatory periodic refinement
// finds a closer node that joined later.
func TestRefinementSwitchesToCloserPeer(t *testing.T) {
	// S=(0,0); P=(30,30); X=(40,0) wired under P; Q=(39,1) wired under
	// S (the stale state a real churn sequence leaves behind). X's
	// refinement from the root path should move X under Q.
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 30}, {X: 40, Y: 0}, {X: 39, Y: 1},
	}, nil)
	x := r.nodes[2]
	x.cfg.RefinePeriodS = 20

	r.joinAll(1) // P under S
	now := r.Sim.Now()
	r.Sim.At(now+1, func() {
		x.MarkJoinStart()
		r.nodes[1].HandleMessage(2, overlay.ConnRequest{Token: 99, Kind: overlay.ConnChild, Dist: 31.6})
		x.ApplyConnect(1, 31.6, []overlay.NodeID{0, 1})
		x.Tick(x.cfg.RefinePeriodS, 0.1, x.refine)

		q := r.nodes[3]
		q.MarkJoinStart()
		r.nodes[0].HandleMessage(3, overlay.ConnRequest{Token: 98, Kind: overlay.ConnChild, Dist: 39.01})
		q.ApplyConnect(0, 39.01, []overlay.NodeID{0})
	})
	r.Run(now + 160) // several refinement rounds (random root-path start)

	if got := r.parentOf(t, 2); got != 3 {
		t.Fatalf("X's parent after refinement = %d, want the close peer Q", got)
	}
	if x.Base().Stats().ParentSwitch < 1 {
		t.Fatal("no switch recorded")
	}
}

// TestRefinementKeepsGoodParent: no oscillation when the parent is
// already the closest option.
func TestRefinementKeepsGoodParent(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 12, Y: 0},
	}, nil)
	r.nodes[2].cfg.RefinePeriodS = 10
	r.joinAll(1, 2)
	r.Run(r.Sim.Now() + 100)
	if got := r.nodes[2].Base().Stats().ParentSwitch; got != 0 {
		t.Fatalf("%d needless switches", got)
	}
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("parent drifted to %d", got)
	}
}

// TestReconnectionAtGrandparent: HMTP recovers via the same
// grandparent-first rule the paper measures both protocols with.
func TestReconnectionAtGrandparent(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 12, Y: 0},
	}, nil)
	r.joinAll(1, 2)
	if r.parentOf(t, 2) != 1 {
		t.Fatal("precondition failed")
	}
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { r.nodes[1].Leave() })
	r.Run(now + 10)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("orphan's parent = %d, want grandparent (source)", got)
	}
	if len(r.nodes[2].Base().Stats().Reconnects) != 1 {
		t.Fatal("reconnection not recorded")
	}
}

// TestJoinRestartsWhenTargetDies: descent target vanishes mid-join.
func TestJoinRestartsWhenTargetDies(t *testing.T) {
	r := newRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 11, Y: 0},
	}, nil)
	r.joinAll(1)
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { r.Net.Unregister(1) })
	r.Sim.At(now+2, func() { r.nodes[2].StartJoin() })
	r.Run(now + 20)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("parent = %d, want source after restart", got)
	}
}
