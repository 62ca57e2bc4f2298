package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"vdm/internal/metrics"
	"vdm/internal/obs/tree"
	"vdm/internal/overlay"
	"vdm/internal/rng"
	"vdm/internal/underlay"
)

// chainNode is a hand-built tree member: only its TreeView methods are
// implemented.
type chainNode struct {
	overlay.Protocol
	id, parent overlay.NodeID
	kids       []overlay.NodeID
}

func (n *chainNode) ID() overlay.NodeID         { return n.id }
func (n *chainNode) ParentID() overlay.NodeID   { return n.parent }
func (n *chainNode) ChildIDs() []overlay.NodeID { return n.kids }
func (n *chainNode) Connected() bool            { return n.id == 0 || n.parent != overlay.None }
func (n *chainNode) IsSource() bool             { return n.id == 0 }

// forestSession builds a session whose roster is nodes (indexed by id,
// nil = not alive) over a static underlay of random RTTs.
func forestSession(nodes []*chainNode, r *rng.Stream) *session {
	rtt := make([][]float64, len(nodes))
	for i := range rtt {
		rtt[i] = make([]float64, len(nodes))
	}
	for i := range rtt {
		for j := i + 1; j < len(rtt); j++ {
			d := 1 + 99*r.Float64()
			if r.Intn(20) == 0 {
				d = 0 // a zero direct distance skips the stretch sample
			}
			rtt[i][j], rtt[j][i] = d, d
		}
	}
	s := &session{u: underlay.NewStatic(rtt), insts: make([]overlay.Protocol, len(nodes))}
	for id, n := range nodes {
		if n != nil {
			s.insts[id] = n
		}
	}
	return s
}

// randomForest draws a roster over ids 0…u−1 with the source 0 alive:
// orphans, departed parents (dead ids), cycles and nodes below them come
// from parents drawn at random, and the source sometimes has a parent.
// Child lists mostly mirror the parents, with asymmetries and departed
// children mixed in.
func randomForest(r *rng.Stream) []*chainNode {
	u := 2 + r.Intn(13)
	nodes := make([]*chainNode, u)
	var alive, dead []overlay.NodeID
	for id := 0; id < u; id++ {
		if id == 0 || r.Intn(5) != 0 {
			nodes[id] = &chainNode{id: overlay.NodeID(id)}
			alive = append(alive, overlay.NodeID(id))
		} else {
			dead = append(dead, overlay.NodeID(id))
		}
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		k := r.Intn(20)
		if n.id == 0 && r.Intn(3) != 0 {
			k = 0
		}
		switch {
		case k < 3:
			n.parent = overlay.None
		case k < 5 && len(dead) > 0:
			n.parent = dead[r.Intn(len(dead))]
		case k < 9:
			n.parent = 0
		default:
			n.parent = alive[r.Intn(len(alive))]
		}
	}
	for _, n := range nodes {
		if n == nil || n.parent == overlay.None || int(n.parent) >= u || nodes[n.parent] == nil {
			continue
		}
		if r.Intn(10) != 0 {
			p := nodes[n.parent]
			p.kids = append(p.kids, n.id)
		}
	}
	for _, n := range nodes {
		if n != nil && r.Intn(8) == 0 {
			n.kids = append(n.kids, overlay.NodeID(r.Intn(u)))
		}
	}
	return nodes
}

// TestChainsMatchReferenceWalks compares the parent-chain index, and
// every caller that reads it, with the walks it replaced on seeded
// random forests. treeDepths is compared only off cycles: it reported
// its cycle guard as a depth there.
func TestChainsMatchReferenceWalks(t *testing.T) {
	deg := func(id overlay.NodeID) int { return 1 + int(id)%3 }
	for seed := int64(1); seed <= 3000; seed++ {
		r := rng.New(seed)
		nodes := randomForest(r)
		s := forestSession(nodes, r)
		views := s.views()
		// The metrics-level walks see the views in a shuffled order too.
		shuffled := append([]overlay.TreeView(nil), views...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		fail := func(format string, args ...any) {
			t.Helper()
			desc := ""
			for _, v := range views {
				desc += fmt.Sprintf(" %d→%d%v", v.ID(), v.ParentID(), v.ChildIDs())
			}
			t.Fatalf("seed %d (%s): %s", seed, desc, fmt.Sprintf(format, args...))
		}

		for _, vs := range [][]overlay.TreeView{views, shuffled} {
			if got, want := metrics.Collect(vs, 0, s.u), refCollect(vs, 0, s.u); !reflect.DeepEqual(got, want) {
				fail("Collect %+v, reference %+v", got, want)
			}
			if got, want := metrics.Validate(vs, 0, deg), refValidate(vs, 0, deg); !reflect.DeepEqual(got, want) {
				fail("Validate %q, reference %q", got, want)
			}
			chains := metrics.ViewChains(vs, 0)
			if got, want := mstVertices(vs, chains), refReachableSet(vs, 0); !reflect.DeepEqual(got, want) {
				fail("mstRatios vertices %v, ReachableSet %v", got, want)
			}
			byID := make(map[overlay.NodeID]overlay.StatusReport, len(vs))
			ids := make([]overlay.NodeID, len(vs))
			for i, v := range vs {
				byID[v.ID()] = overlay.StatusReport{Parent: v.ParentID()}
				ids[i] = v.ID()
			}
			chainTo := refChainTo(byID, ids, 0)
			treeDepth := refTreeDepths(vs)
			for i, v := range vs {
				d := chains.Depth(i)
				if v.ID() == 0 {
					if d != 0 {
						fail("source depth %d", d)
					}
					continue
				}
				if rd, _, reached := chainTo(v.ID()); reached != (d >= 0) || reached && rd != d {
					fail("node %d: depth %d, chainTo (%d, %v)", v.ID(), d, rd, reached)
				}
				if cyclic := d < 0 && chains.Loops(i); !cyclic {
					if td := treeDepth(v.ID()); td != d && !(td < 0 && d < 0) {
						fail("node %d: depth %d, treeDepths %d", v.ID(), d, td)
					}
				}
			}
		}

		// finalTree and protoSample against treeDepths (cycles count as
		// unreachable), the aggregator against chainTo.
		chains := metrics.ViewChains(views, 0)
		treeDepth := refTreeDepths(views)
		depthOf := func(i int, v overlay.TreeView) int {
			if chains.Depth(i) < 0 && chains.Loops(i) {
				return -1
			}
			return treeDepth(v.ID())
		}
		var want []TreeEdge
		var wantP struct {
			reach, unattached, depthMax, depthSum int
			cost                                  float64
		}
		byID := make(map[overlay.NodeID]overlay.StatusReport, len(views))
		ids := make([]overlay.NodeID, len(views))
		agg := tree.New(tree.Config{Source: 0})
		for i, v := range views {
			rep := overlay.StatusReport{Seq: 1, Parent: v.ParentID()}
			if v.ParentID() != overlay.None && int(v.ParentID()) < len(nodes) {
				rep.ParentDist = s.u.BaseRTT(int(v.ID()), int(v.ParentID()))
			}
			agg.Ingest(1, v.ID(), rep)
			byID[v.ID()], ids[i] = rep, v.ID()
			if v.IsSource() {
				wantP.reach++
				continue
			}
			if v.ParentID() == overlay.None {
				wantP.unattached++
				continue
			}
			d := depthOf(i, v)
			if d < 0 {
				continue
			}
			wantP.reach++
			wantP.depthSum += d
			wantP.depthMax = max(wantP.depthMax, d)
			wantP.cost += s.u.BaseRTT(int(v.ID()), int(v.ParentID()))
			want = append(want, TreeEdge{Child: int(v.ID()), Parent: int(v.ParentID()), Depth: d})
		}
		got := s.finalTree(views, chains)
		if len(got) != len(want) {
			fail("finalTree has %d edges, want %d", len(got), len(want))
		}
		for _, e := range got {
			i, _ := chains.Pos(overlay.NodeID(e.Child))
			if d := depthOf(i, views[i]); e.Depth != d || e.Parent != int(views[i].ParentID()) {
				fail("finalTree edge %+v, want depth %d", e, d)
			}
		}
		p := s.protoSample()
		if p.Alive != len(views) || p.Reachable != wantP.reach || p.Unattached != wantP.unattached ||
			p.DepthMax != wantP.depthMax || p.TreeCostMS != wantP.cost {
			fail("protoSample %+v, want %+v", p, wantP)
		}
		if n := wantP.reach - 1; n > 0 && p.DepthMean != float64(wantP.depthSum)/float64(n) {
			fail("protoSample depth mean %v", p.DepthMean)
		}

		chainTo := refChainTo(byID, ids, 0)
		snap := agg.Snapshot()
		for _, h := range snap.Peers {
			id := overlay.NodeID(h.ID)
			if id == 0 {
				continue
			}
			d, rtt, reached := chainTo(id)
			if !reached {
				d, rtt = -1, 0
			}
			if h.Depth != d || h.Partitioned == reached || math.Abs(h.PathRTTMS-rtt) > 1e-9*rtt {
				fail("aggregator row %+v, chainTo (%d, %v, %v)", h, d, rtt, reached)
			}
		}
	}
}

// TestCycleIsUnreachable pins the five-view cycle treeDepths got wrong:
// with 2 ⇄ 3 a cycle and 4 below it, the final tree lists only 0 → 1 and
// the flight recorder's sample counts the source and peer 1 reachable.
func TestCycleIsUnreachable(t *testing.T) {
	nodes := []*chainNode{
		{id: 0, parent: overlay.None, kids: []overlay.NodeID{1}},
		{id: 1, parent: 0},
		{id: 2, parent: 3, kids: []overlay.NodeID{3}},
		{id: 3, parent: 2, kids: []overlay.NodeID{2, 4}},
		{id: 4, parent: 3},
	}
	s := forestSession(nodes, rng.New(1))
	views := s.views()
	edges := s.finalTree(views, metrics.ViewChains(views, 0))
	if len(edges) != 1 || edges[0].Child != 1 || edges[0].Depth != 1 {
		t.Fatalf("final tree %+v, want only 0 → 1 at depth 1", edges)
	}
	p := s.protoSample()
	if p.Alive != 5 || p.Reachable != 2 || p.DepthMax != 1 || p.DepthMean != 1 {
		t.Fatalf("sample %+v, want 5 alive, 2 reachable, depth max and mean 1", p)
	}
	if want := s.u.BaseRTT(1, 0); p.TreeCostMS != want {
		t.Fatalf("tree cost %v, want %v", p.TreeCostMS, want)
	}
}
