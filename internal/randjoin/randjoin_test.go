package randjoin

import (
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
	"vdm/internal/rng"
)

func newRig(t *testing.T, n int, degree int) (*protocoltest.Rig, map[overlay.NodeID]*Node) {
	t.Helper()
	points := make([]protocoltest.Point, n)
	for i := range points {
		points[i] = protocoltest.Point{X: float64(i * 3), Y: float64((i * 7) % 11)}
	}
	r := protocoltest.New(points)
	nodes := map[overlay.NodeID]*Node{}
	for i := 0; i < n; i++ {
		nd := New(r.Net, r.PeerConfig(overlay.NodeID(i), degree), rng.New(int64(i)+11))
		r.Net.Register(overlay.NodeID(i), nd)
		nodes[overlay.NodeID(i)] = nd
	}
	return r, nodes
}

func TestAllNodesConnect(t *testing.T) {
	r, nodes := newRig(t, 20, 3)
	for i := 1; i < 20; i++ {
		id := overlay.NodeID(i)
		r.Sim.At(float64(i)*5, func() { nodes[id].StartJoin() })
	}
	r.Run(300)
	for i := 1; i < 20; i++ {
		n := nodes[overlay.NodeID(i)]
		if !n.Connected() {
			t.Fatalf("node %d never connected", i)
		}
		// Walk to the root.
		cur, steps := overlay.NodeID(i), 0
		for cur != 0 {
			p := nodes[cur].ParentID()
			if p == overlay.None || steps > 20 {
				t.Fatalf("node %d not rooted (stuck at %d)", i, cur)
			}
			cur = p
			steps++
		}
	}
}

func TestDegreeRespected(t *testing.T) {
	r, nodes := newRig(t, 15, 2)
	for i := 1; i < 15; i++ {
		id := overlay.NodeID(i)
		r.Sim.At(float64(i)*5, func() { nodes[id].StartJoin() })
	}
	r.Run(300)
	for id, n := range nodes {
		if len(n.ChildIDs()) > 2 {
			t.Fatalf("node %d exceeds degree: %v", id, n.ChildIDs())
		}
	}
}

func TestOrphanRejoins(t *testing.T) {
	r, nodes := newRig(t, 6, 1) // degree 1 forces a chain
	for i := 1; i < 6; i++ {
		id := overlay.NodeID(i)
		r.Sim.At(float64(i)*5, func() { nodes[id].StartJoin() })
	}
	r.Run(200)
	// Find a mid-chain node with a child and remove it.
	var victim overlay.NodeID = overlay.None
	for id, n := range nodes {
		if id != 0 && len(n.ChildIDs()) > 0 && n.Connected() {
			victim = id
			break
		}
	}
	if victim == overlay.None {
		t.Skip("no interior node formed")
	}
	child := nodes[victim].ChildIDs()[0]
	now := r.Sim.Now()
	r.Sim.At(now+1, func() { nodes[victim].Leave() })
	r.Run(now + 60)
	if !nodes[child].Connected() {
		t.Fatalf("orphan %d never rejoined", child)
	}
}
