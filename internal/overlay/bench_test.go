package overlay

import (
	"testing"

	"vdm/internal/eventq"
	"vdm/internal/flow"
	"vdm/internal/underlay"
)

// fanoutFixture wires a source with k direct children on a uniform-RTT
// underlay for data-plane benches.
func fanoutFixture(k int) (*eventq.Sim, *Peer, []*Peer) {
	sim, net := uniformNetwork(k + 1)
	src := fixturePeer(net, 0, nil, k)
	var leaves []*Peer
	for i := 1; i <= k; i++ {
		leaves = append(leaves, fixturePeer(net, NodeID(i), src, 1))
	}
	return sim, src, leaves
}

// relayFixture wires source 0 → relay 1 → k leaves on a uniform-RTT
// underlay: the relay runs the forward every non-source peer runs.
func relayFixture(k int) (sim *eventq.Sim, src, relay *Peer, leaves []*Peer) {
	sim, net := uniformNetwork(k + 2)
	src = fixturePeer(net, 0, nil, 1)
	relay = fixturePeer(net, 1, src, k)
	for i := 2; i < k+2; i++ {
		leaves = append(leaves, fixturePeer(net, NodeID(i), relay, 1))
	}
	return sim, src, relay, leaves
}

// uniformNetwork is a network of n nodes 20 ms RTT apart.
func uniformNetwork(n int) (*eventq.Sim, *Network) {
	sim := eventq.New()
	return sim, NewNetwork(sim, underlay.NewStatic(uniformRTT(n, 20)), 1)
}

// fixturePeer registers peer id with the given degree and connects it
// under parent, or makes it the source when parent is nil.
func fixturePeer(net *Network, id NodeID, parent *Peer, degree int) *Peer {
	p := NewPeer(net, PeerConfig{ID: id, Source: 0, MaxDegree: degree, IsSource: parent == nil})
	p.SetHooks(nopHooks{})
	net.Register(id, p)
	if parent != nil {
		p.ApplyConnect(parent.ID(), 20, parent.pathForChildren())
		parent.PutChild(id, 20)
	}
	return p
}

type nopHooks struct{}

func (nopHooks) HandleProtocol(NodeID, Message) {}
func (nopHooks) OnOrphaned(NodeID, NodeID)      {}

func BenchmarkSeqWindowSequential(b *testing.B) {
	w := flow.NewWindow(flow.DefaultWindowBits, flow.DefaultBackfill)
	for i := 0; i < b.N; i++ {
		w.Add(int64(i))
	}
}

// BenchmarkChunkFanout pushes chunks from the source through a relay to
// eight leaves: one source forward and one relay forward per chunk.
func BenchmarkChunkFanout(b *testing.B) {
	sim, src, _, _ := relayFixture(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.EmitChunk(int64(i))
		// Not Drain: the starvation watchdogs reschedule forever.
		sim.Run(sim.Now() + 0.05)
	}
}
