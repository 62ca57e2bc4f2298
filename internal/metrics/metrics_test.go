package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/topology"
	"vdm/internal/underlay"
)

// fakeView is a hand-built TreeView for collector tests.
type fakeView struct {
	id       overlay.NodeID
	parent   overlay.NodeID
	children []overlay.NodeID
	source   bool
}

func (f *fakeView) ID() overlay.NodeID         { return f.id }
func (f *fakeView) ParentID() overlay.NodeID   { return f.parent }
func (f *fakeView) ChildIDs() []overlay.NodeID { return f.children }
func (f *fakeView) Connected() bool            { return f.source || f.parent != overlay.None }
func (f *fakeView) IsSource() bool             { return f.source }

// chain builds source(0) -> 1 -> 2 with RTTs 10 and 20; direct 0-2 is 25.
func chainFixture() ([]overlay.TreeView, *underlay.Static) {
	u := underlay.NewStatic([][]float64{
		{0, 10, 25},
		{10, 0, 20},
		{25, 20, 0},
	})
	views := []overlay.TreeView{
		&fakeView{id: 0, parent: overlay.None, children: []overlay.NodeID{1}, source: true},
		&fakeView{id: 1, parent: 0, children: []overlay.NodeID{2}},
		&fakeView{id: 2, parent: 1},
	}
	return views, u
}

func TestCollectChainStretchHopUsage(t *testing.T) {
	views, u := chainFixture()
	snap := Collect(views, 0, u)
	if snap.Alive != 2 || snap.Reachable != 2 || snap.Orphans != 0 {
		t.Fatalf("population: %+v", snap)
	}
	// Node 1: overlay delay 10, direct 10 → stretch 1.
	// Node 2: overlay delay 30, direct 25 → stretch 1.2.
	if math.Abs(snap.Stretch-1.1) > 1e-9 {
		t.Fatalf("stretch = %v, want 1.1", snap.Stretch)
	}
	if snap.MinStretch != 1 || math.Abs(snap.MaxStretch-1.2) > 1e-9 {
		t.Fatalf("min/max stretch %v/%v", snap.MinStretch, snap.MaxStretch)
	}
	// Leaf is node 2 only.
	if math.Abs(snap.LeafStretch-1.2) > 1e-9 {
		t.Fatalf("leaf stretch %v", snap.LeafStretch)
	}
	if snap.Hopcount != 1.5 || snap.MaxHopcount != 2 || snap.LeafHopcount != 2 {
		t.Fatalf("hopcounts %v/%v/%v", snap.Hopcount, snap.LeafHopcount, snap.MaxHopcount)
	}
	if snap.UsageMS != 30 {
		t.Fatalf("usage = %v, want 30", snap.UsageMS)
	}
	if math.Abs(snap.UsageNorm-30.0/35.0) > 1e-9 {
		t.Fatalf("usage norm = %v", snap.UsageNorm)
	}
	// No router model → stress undefined (0).
	if snap.Stress != 0 {
		t.Fatalf("stress = %v without router model", snap.Stress)
	}
}

func TestCollectCountsOrphansAndUnreachable(t *testing.T) {
	u := underlay.NewStatic([][]float64{
		{0, 10, 10, 10},
		{10, 0, 10, 10},
		{10, 10, 0, 10},
		{10, 10, 10, 0},
	})
	views := []overlay.TreeView{
		&fakeView{id: 0, parent: overlay.None, source: true},
		&fakeView{id: 1, parent: overlay.None}, // orphan
		&fakeView{id: 2, parent: 3},            // parent departed (not in views)... but 3 is below
		&fakeView{id: 3, parent: overlay.None}, // orphan: 2 hangs off it, unreachable
	}
	snap := Collect(views, 0, u)
	if snap.Alive != 3 {
		t.Fatalf("alive = %d", snap.Alive)
	}
	if snap.Orphans != 2 {
		t.Fatalf("orphans = %d", snap.Orphans)
	}
	if snap.Reachable != 0 {
		t.Fatalf("reachable = %d", snap.Reachable)
	}
}

// newPathGraph builds the smallest router underlay by hand:
// r0 - r1 - r2 in a line (5 ms links).
func newPathGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(3)
	if _, err := g.AddLink(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCollectStressCountsSharedLinks checks the stress metric on a router
// underlay: hosts 0@r0 (source), 1@r2 and 2@r2 — both overlay edges cross
// both physical links.
func TestCollectStressCountsSharedLinks(t *testing.T) {
	g := newPathGraph(t)
	u := underlay.NewRouter(g, []topology.RouterID{0, 2, 2})
	views := []overlay.TreeView{
		&fakeView{id: 0, parent: overlay.None, children: []overlay.NodeID{1, 2}, source: true},
		&fakeView{id: 1, parent: 0},
		&fakeView{id: 2, parent: 0},
	}
	snap := Collect(views, 0, u)
	// Both overlay edges 0-1 and 0-2 cross both physical links: stress 2
	// on each of the two links.
	if snap.Stress != 2 || snap.MaxStress != 2 {
		t.Fatalf("stress = %v max %v, want 2/2", snap.Stress, snap.MaxStress)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	deg := func(overlay.NodeID) int { return 2 }

	// Asymmetric parent/child.
	views := []overlay.TreeView{
		&fakeView{id: 0, parent: overlay.None, children: []overlay.NodeID{1}, source: true},
		&fakeView{id: 1, parent: 0, children: []overlay.NodeID{2}},
		&fakeView{id: 2, parent: 0}, // claims parent 0, but is child of 1
	}
	errs := Validate(views, 0, deg)
	if len(errs) == 0 || !strings.Contains(errs[0], "has parent") {
		t.Fatalf("asymmetry not caught: %v", errs)
	}

	// Degree violation.
	views = []overlay.TreeView{
		&fakeView{id: 0, parent: overlay.None, children: []overlay.NodeID{1, 2, 3}, source: true},
		&fakeView{id: 1, parent: 0},
		&fakeView{id: 2, parent: 0},
		&fakeView{id: 3, parent: 0},
	}
	if errs := Validate(views, 0, deg); len(errs) == 0 {
		t.Fatal("degree violation not caught")
	}

	// Cycle.
	views = []overlay.TreeView{
		&fakeView{id: 0, parent: overlay.None, source: true},
		&fakeView{id: 1, parent: 2, children: []overlay.NodeID{2}},
		&fakeView{id: 2, parent: 1, children: []overlay.NodeID{1}},
	}
	found := false
	for _, e := range Validate(views, 0, deg) {
		if strings.Contains(e, "cycle") {
			found = true
		}
	}
	if !found {
		t.Fatal("cycle not caught")
	}

	// Source with a parent.
	views = []overlay.TreeView{
		&fakeView{id: 0, parent: 1, source: true},
		&fakeView{id: 1, parent: overlay.None, children: []overlay.NodeID{0}},
	}
	found = false
	for _, e := range Validate(views, 0, deg) {
		if strings.Contains(e, "source") {
			found = true
		}
	}
	if !found {
		t.Fatal("source parent not caught")
	}
}

func TestValidateCleanTree(t *testing.T) {
	views, _ := chainFixture()
	if errs := Validate(views, 0, func(overlay.NodeID) int { return 3 }); len(errs) != 0 {
		t.Fatalf("clean tree flagged: %v", errs)
	}
}

// TestReachableSet checks the index on a small tree with an orphan: the
// source and its chain are reachable at their depths, parents first.
func TestReachableSet(t *testing.T) {
	views := []overlay.TreeView{
		&fakeView{id: 0, parent: overlay.None, children: []overlay.NodeID{1}, source: true},
		&fakeView{id: 1, parent: 0, children: []overlay.NodeID{2}},
		&fakeView{id: 2, parent: 1},
		&fakeView{id: 3, parent: overlay.None}, // orphan
	}
	c := ViewChains(views, 0)
	for i, want := range []int{0, 1, 2, ended} {
		if got := c.Depth(i); got != want {
			t.Fatalf("depth of %d = %d, want %d", views[i].ID(), got, want)
		}
		if c.Loops(i) {
			t.Fatalf("node %d loops", views[i].ID())
		}
	}
	if got := c.Down(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("down order %v, want [0 1 2]", got)
	}
}

// TestChainsStates covers every state the index distinguishes: a
// departed parent and no parent end a chain; a cycle and a node below it
// loop; a source whose parent is in a cycle makes its reachable peers
// loop too; a peer whose parent is an absent source is reachable.
func TestChainsStates(t *testing.T) {
	type node struct{ id, parent overlay.NodeID }
	cases := []struct {
		name   string
		nodes  []node
		source overlay.NodeID
		depth  []int
		loops  []bool
	}{
		{"departed and orphan",
			[]node{{0, overlay.None}, {1, 0}, {2, 9}, {3, 2}, {4, overlay.None}, {5, 4}}, 0,
			[]int{0, 1, ended, ended, ended, ended},
			[]bool{false, false, false, false, false, false}},
		{"cycle and below it",
			[]node{{0, overlay.None}, {1, 0}, {2, 3}, {3, 2}, {4, 3}}, 0,
			[]int{0, 1, looping, looping, looping},
			[]bool{false, false, true, true, true}},
		{"self parent",
			[]node{{0, overlay.None}, {1, 1}, {2, 1}}, 0,
			[]int{0, looping, looping},
			[]bool{false, true, true}},
		{"source below a cycle",
			[]node{{0, 1}, {1, 2}, {2, 1}, {3, 0}, {4, overlay.None}}, 0,
			[]int{0, looping, looping, 1, ended},
			[]bool{true, true, true, true, false}},
		{"source in a cycle",
			[]node{{0, 2}, {1, 0}, {2, 1}, {3, 0}}, 0,
			[]int{0, 1, 2, 1},
			[]bool{true, true, true, true}},
		{"source with a departed parent",
			[]node{{5, 8}, {1, 5}, {2, 1}}, 5,
			[]int{0, 1, 2},
			[]bool{false, false, false}},
		{"absent source",
			[]node{{1, 0}, {2, 1}, {3, 7}}, 0,
			[]int{1, 2, ended},
			[]bool{false, false, false}},
	}
	for _, tc := range cases {
		c := NewChains(len(tc.nodes), func(i int) (overlay.NodeID, overlay.NodeID) {
			return tc.nodes[i].id, tc.nodes[i].parent
		}, tc.source)
		for i, n := range tc.nodes {
			if got := c.Depth(i); got != tc.depth[i] {
				t.Errorf("%s: depth of %d = %d, want %d", tc.name, n.id, got, tc.depth[i])
			}
			if got := c.Loops(i); got != tc.loops[i] {
				t.Errorf("%s: loops(%d) = %v, want %v", tc.name, n.id, got, tc.loops[i])
			}
			if p, ok := c.Pos(n.id); !ok || p != i {
				t.Errorf("%s: pos of %d = %d, %v", tc.name, n.id, p, ok)
			}
		}
		seen := map[int]bool{}
		for _, i := range c.Down() {
			n := tc.nodes[i]
			if p, ok := c.Pos(n.parent); ok && n.id != tc.source && !seen[p] {
				t.Errorf("%s: %d listed before its parent %d", tc.name, n.id, n.parent)
			}
			seen[i] = true
		}
		for i := range tc.nodes {
			if seen[i] != (tc.depth[i] >= 0) {
				t.Errorf("%s: node %d listed %v, depth %d", tc.name, tc.nodes[i].id, seen[i], tc.depth[i])
			}
		}
	}
}
