package core

import (
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
	"vdm/internal/rng"
)

// vdmRig spawns VDM nodes on a 2-D plane; the join examples of chapter 3
// are reproduced geometrically (RTT = Euclidean distance).
type vdmRig struct {
	*protocoltest.Rig
	nodes map[overlay.NodeID]*Node
}

func newVDMRig(t *testing.T, points []protocoltest.Point, degrees []int) *vdmRig {
	t.Helper()
	r := &vdmRig{Rig: protocoltest.New(points), nodes: map[overlay.NodeID]*Node{}}
	for i := range points {
		deg := 4
		if degrees != nil {
			deg = degrees[i]
		}
		r.add(overlay.NodeID(i), deg, Config{})
	}
	return r
}

func (r *vdmRig) add(id overlay.NodeID, degree int, cfg Config) *Node {
	n := New(r.Net, r.PeerConfig(id, degree), cfg, rng.New(int64(id)+100))
	r.Net.Register(id, n)
	r.nodes[id] = n
	return n
}

// joinAll starts joins in the given order, 10 virtual seconds apart, and
// settles.
func (r *vdmRig) joinAll(order ...overlay.NodeID) {
	for i, id := range order {
		id := id
		r.Sim.At(float64(i)*10, func() { r.nodes[id].StartJoin() })
	}
	r.Run(float64(len(order))*10 + 30)
}

func (r *vdmRig) parentOf(t *testing.T, id overlay.NodeID) overlay.NodeID {
	t.Helper()
	n := r.nodes[id]
	if !n.Connected() {
		t.Fatalf("node %d not connected", id)
	}
	return n.ParentID()
}

// TestJoinExampleI reproduces figure 3.8: N is in no child's direction, so
// it attaches to the source (Case I).
func TestJoinExampleI(t *testing.T) {
	//  S=(0,0) with children E1=(10,0), E2=(0,12); N=(-8,-6) behind S.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 12}, {X: -8, Y: -6},
	}, nil)
	r.joinAll(1, 2, 3)
	if got := r.parentOf(t, 3); got != 0 {
		t.Fatalf("N's parent = %d, want source", got)
	}
}

// TestJoinExampleII reproduces figure 3.9: Case III at the source, then
// Case I at the child — N lands under C1.
func TestJoinExampleII(t *testing.T) {
	// S=(0,0), C1=(10,0); N=(25,0) beyond C1 in the same direction.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0},
	}, nil)
	r.joinAll(1, 2)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("N's parent = %d, want C1", got)
	}
}

// TestJoinExampleIII reproduces figures 3.10/3.11: Case III descends into
// C1, where Case II splices N between C1 and C2.
func TestJoinExampleIII(t *testing.T) {
	// S=(0,0), C1=(10,0), C2=(30,0) (child of C1); N=(20,0).
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 30, Y: 0}, {X: 20, Y: 0},
	}, nil)
	r.joinAll(1, 2) // C2 descends into C1 via Case III
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("precondition: C2's parent = %d, want C1", got)
	}
	r.Sim.At(r.Sim.Now()+5, func() { r.nodes[3].StartJoin() })
	r.Run(r.Sim.Now() + 30)

	if got := r.parentOf(t, 3); got != 1 {
		t.Fatalf("N's parent = %d, want C1", got)
	}
	if got := r.parentOf(t, 2); got != 3 {
		t.Fatalf("C2's parent after splice = %d, want N", got)
	}
	if got := r.nodes[2].Grandparent(); got != 1 {
		t.Fatalf("C2's grandparent = %d, want C1", got)
	}
}

// TestJoinScenarioITwoCaseIIChildren reproduces figure 3.13: Case II with
// two children at once — N adopts both, degree permitting. C1 and C2 sit
// off-axis from each other (so neither reorganized the other at join
// time) but both lie beyond N on lines through the source.
func TestJoinScenarioITwoCaseIIChildren(t *testing.T) {
	// S=(0,0) with children C1=(20,6), C2=(20,-6); N=(10,0).
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 20, Y: 6}, {X: 20, Y: -6}, {X: 10, Y: 0},
	}, nil)
	r.joinAll(1, 2, 3)
	if got := r.parentOf(t, 3); got != 0 {
		t.Fatalf("N's parent = %d, want source", got)
	}
	if got := r.parentOf(t, 1); got != 3 {
		t.Fatalf("C1's parent = %d, want N", got)
	}
	if got := r.parentOf(t, 2); got != 3 {
		t.Fatalf("C2's parent = %d, want N", got)
	}
}

// TestJoinScenarioIDegreeLimitsAdoption: with degree 1, N adopts only the
// closest Case-II child ("as long as the new node allows").
func TestJoinScenarioIDegreeLimitsAdoption(t *testing.T) {
	// As above, but C2 is slightly farther from N, and N has degree 1:
	// only the closer child C1 is adopted.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 20, Y: 6}, {X: 21, Y: -6}, {X: 10, Y: 0},
	}, []int{4, 4, 4, 1})
	r.joinAll(1, 2, 3)
	if got := r.parentOf(t, 3); got != 0 {
		t.Fatalf("N's parent = %d, want source", got)
	}
	adopted := r.nodes[3].ChildIDs()
	if len(adopted) != 1 || adopted[0] != 1 {
		t.Fatalf("adopted %v, want just the closest child C1", adopted)
	}
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("C2 should stay under the source, has parent %d", got)
	}
}

// TestJoinScenarioIIClosestCaseIII reproduces figure 3.14: Case III with
// two children — the join continues from the closest one.
func TestJoinScenarioIIClosestCaseIII(t *testing.T) {
	// S=(0,0), C1=(10,0.5), C2=(12,-0.5); N=(25,0) — C2 is closer to N.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0.5}, {X: 12, Y: -0.5}, {X: 25, Y: 0},
	}, nil)
	r.joinAll(1, 2, 3)
	if got := r.parentOf(t, 3); got != 2 {
		t.Fatalf("N's parent = %d, want the closer Case-III child C2", got)
	}
}

// TestJoinScenarioIIIPrefersCaseIII reproduces figure 3.15: when Case II
// (with child C2) and Case III (with child C1) both appear in the same
// iteration, the join continues with Case III. Euclidean placements
// cannot hold this precondition (the earlier joiner would have already
// reorganized), so the distances come from a hand-written matrix the way
// the dissertation draws the scenario.
func TestJoinScenarioIIIPrefersCaseIII(t *testing.T) {
	rig := protocoltest.New([]protocoltest.Point{{}, {}, {}, {}})
	rig.U.RTTms = [][]float64{
		// S, C1, C2, N
		{0, 10, 40, 25},
		{10, 0, 38, 15},
		{40, 38, 0, 16},
		{25, 15, 16, 0},
	}
	r := &vdmRig{Rig: rig, nodes: map[overlay.NodeID]*Node{}}
	for i := 0; i < 4; i++ {
		r.add(overlay.NodeID(i), 4, Config{})
	}
	r.joinAll(1, 2) // C1 and C2 both end up under S (non-collinear pair)
	if r.parentOf(t, 1) != 0 || r.parentOf(t, 2) != 0 {
		t.Fatalf("precondition: children under S, got parents %d, %d",
			r.parentOf(t, 1), r.parentOf(t, 2))
	}
	r.Sim.At(r.Sim.Now()+5, func() { r.nodes[3].StartJoin() })
	r.Run(r.Sim.Now() + 30)

	if got := r.parentOf(t, 3); got != 1 {
		t.Fatalf("N's parent = %d, want the Case-III child C1", got)
	}
	// C2 keeps its parent: the Case-II splice was forgone.
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("C2's parent = %d, want source", got)
	}
}

// TestJoinDegreeFullFallback: Case I at a saturated node falls back to the
// closest child with capacity (figure 3.6's "connects to closest free
// child").
func TestJoinDegreeFullFallback(t *testing.T) {
	// Source degree 1 holds C=(5,5); N=(-5,-5) is in no direction.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 5, Y: 5}, {X: -5, Y: -5},
	}, []int{1, 4, 4})
	r.joinAll(1, 2)
	if got := r.parentOf(t, 2); got != 1 {
		t.Fatalf("N's parent = %d, want the only child", got)
	}
}

// TestReconnectionAtGrandparent reproduces figure 3.19: the orphan starts
// its rejoin at the grandparent and recovers.
func TestReconnectionAtGrandparent(t *testing.T) {
	// Chain S=(0,0) -> A=(10,0) -> B=(20,0).
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0},
	}, nil)
	r.joinAll(1, 2)
	if r.parentOf(t, 2) != 1 {
		t.Fatal("precondition: chain not built")
	}
	r.Sim.At(r.Sim.Now()+1, func() { r.nodes[1].Leave() })
	r.Run(r.Sim.Now() + 10)

	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("orphan's new parent = %d, want grandparent (source)", got)
	}
	st := r.nodes[2].Base().Stats()
	if len(st.Reconnects) != 1 {
		t.Fatalf("reconnects recorded: %v", st.Reconnects)
	}
	if st.Reconnects[0] <= 0 || st.Reconnects[0] > 2 {
		t.Fatalf("reconnection took %v s, expected well under the timeout", st.Reconnects[0])
	}
}

// TestReconnectionFallsBackToSource: parent and grandparent leave
// together; the orphan times out at the grandparent and recovers at the
// source.
func TestReconnectionFallsBackToSource(t *testing.T) {
	// Chain S -> A -> B -> C.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0},
	}, nil)
	r.joinAll(1, 2, 3)
	if r.parentOf(t, 3) != 2 || r.parentOf(t, 2) != 1 {
		t.Fatal("precondition: chain not built")
	}
	at := r.Sim.Now() + 1
	r.Sim.At(at, func() {
		r.nodes[1].Leave()
		r.nodes[2].Leave()
	})
	r.Run(at + 15) // grandparent timeout (2 s) + rejoin

	if got := r.parentOf(t, 3); got != 0 {
		t.Fatalf("orphan's parent = %d, want source", got)
	}
	st := r.nodes[3].Base().Stats()
	if len(st.Reconnects) != 1 {
		t.Fatalf("reconnects: %v", st.Reconnects)
	}
	if st.Reconnects[0] < 2 {
		t.Fatalf("reconnection %v s should include the grandparent timeout", st.Reconnects[0])
	}
}

// TestOrphanSubtreeSurvives: the orphan's own children stay attached
// through its reconnection.
func TestOrphanSubtreeSurvives(t *testing.T) {
	// S -> A -> B -> C; A leaves; B reconnects; C must still be B's
	// child throughout.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0},
	}, nil)
	r.joinAll(1, 2, 3)
	r.Sim.At(r.Sim.Now()+1, func() { r.nodes[1].Leave() })
	r.Run(r.Sim.Now() + 10)
	if got := r.parentOf(t, 3); got != 2 {
		t.Fatalf("grandchild's parent = %d, want its original parent", got)
	}
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("orphan's parent = %d, want source", got)
	}
	if got := r.nodes[3].Grandparent(); got != 0 {
		t.Fatalf("grandchild's grandparent = %d, want source after path update", got)
	}
}

// TestRefinementImprovesStaleParent: a hand-wired detour is fixed by the
// periodic refinement (figure 5.28's effect).
func TestRefinementImprovesStaleParent(t *testing.T) {
	// S=(0,0), P=(30,30), X=(40,0): X under P is a detour; refinement
	// should move X under S.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 30, Y: 30}, {X: 40, Y: 0},
	}, nil)
	x := r.nodes[2]
	x.cfg.RefinePeriodS = 20

	r.joinAll(1)
	// Hand-wire X under P.
	now := r.Sim.Now()
	r.Sim.At(now+1, func() {
		x.MarkJoinStart()
		r.nodes[1].HandleMessage(2, overlay.ConnRequest{Token: 999, Kind: overlay.ConnChild, Dist: 31.6})
		x.ApplyConnect(1, 31.6, []overlay.NodeID{0, 1})
		x.Tick(x.cfg.RefinePeriodS, 0.1, func() { x.Refine(x.Source()) })
	})
	r.Run(now + 60) // a couple of refinement periods

	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("X's parent after refinement = %d, want source", got)
	}
	if got := x.Base().Stats().ParentSwitch; got < 1 {
		t.Fatal("no parent switch recorded")
	}
	// P no longer lists X as a child.
	for _, c := range r.nodes[1].ChildIDs() {
		if c == 2 {
			t.Fatal("old parent still lists the switched child")
		}
	}
}

// TestRefinementNoOpWhenOptimal: refinement leaves an optimal parent
// alone.
func TestRefinementNoOpWhenOptimal(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0},
	}, nil)
	r.nodes[1].cfg.RefinePeriodS = 15
	r.joinAll(1)
	r.Run(r.Sim.Now() + 100)
	if got := r.parentOf(t, 1); got != 0 {
		t.Fatalf("parent = %d", got)
	}
	if got := r.nodes[1].Base().Stats().ParentSwitch; got != 0 {
		t.Fatalf("%d needless parent switches", got)
	}
}

// TestJoinTowardDeadNodeRestarts: the join target dies mid-join; the
// newcomer restarts at the source and still connects.
func TestJoinTowardDeadNodeRestarts(t *testing.T) {
	// S=(0,0), C=(10,0); N=(25,0) descends toward C, which dies first.
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0},
	}, nil)
	r.joinAll(1)
	now := r.Sim.Now()
	// C silently vanishes (no leave notification reaches N mid-join).
	r.Sim.At(now+1, func() { r.Net.Unregister(1) })
	r.Sim.At(now+2, func() { r.nodes[2].StartJoin() })
	r.Run(now + 20)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("N's parent = %d, want source after restart", got)
	}
}

// TestRejoinAfterLeave: a node that left can join again as a fresh
// instance on the same host.
func TestRejoinAfterLeave(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0},
	}, nil)
	r.joinAll(1)
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { r.nodes[1].Leave() })
	r.Run(now + 2)
	// Fresh instance on the same host slot.
	n := r.add(1, 4, Config{})
	r.Sim.At(r.Sim.Now()+1, func() { n.StartJoin() })
	r.Run(r.Sim.Now() + 10)
	if !n.Connected() || n.ParentID() != 0 {
		t.Fatal("rejoined instance not connected to source")
	}
}

// TestSourceNeverJoins: StartJoin on the source is a no-op.
func TestSourceNeverJoins(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, nil)
	r.nodes[0].StartJoin()
	r.Run(10)
	if r.nodes[0].Joining() {
		t.Fatal("source entered the join procedure")
	}
	if r.nodes[0].ParentID() != overlay.None {
		t.Fatal("source acquired a parent")
	}
}

// TestReconnectAtSourceAblation: with the ablation flag, orphans skip the
// grandparent.
func TestReconnectAtSourceAblation(t *testing.T) {
	r := newVDMRig(t, []protocoltest.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0},
	}, nil)
	r.nodes[2].cfg.ReconnectAtSource = true
	r.joinAll(1, 2)
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { r.nodes[1].Leave() })
	r.Run(now + 10)
	if got := r.parentOf(t, 2); got != 0 {
		t.Fatalf("parent = %d, want source", got)
	}
}
