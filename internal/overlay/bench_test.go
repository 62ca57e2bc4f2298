package overlay

import (
	"testing"

	"vdm/internal/eventq"
	"vdm/internal/flow"
	"vdm/internal/underlay"
)

// fanoutFixture wires a source with k direct children on a uniform-RTT
// underlay for data-plane benches.
func fanoutFixture(k int) (*eventq.Sim, *Network, *Peer, []*Peer) {
	n := k + 1
	rtt := make([][]float64, n)
	for i := range rtt {
		rtt[i] = make([]float64, n)
		for j := range rtt[i] {
			if i != j {
				rtt[i][j] = 20
			}
		}
	}
	sim := eventq.New()
	net := NewNetwork(sim, underlay.NewStatic(rtt), 1)
	src := NewPeer(net, PeerConfig{ID: 0, Source: 0, MaxDegree: k, IsSource: true})
	src.SetHooks(nopHooks{})
	net.Register(0, src)
	var leaves []*Peer
	for i := 1; i <= k; i++ {
		p := NewPeer(net, PeerConfig{ID: NodeID(i), Source: 0, MaxDegree: 1})
		p.SetHooks(nopHooks{})
		net.Register(NodeID(i), p)
		p.ApplyConnect(0, 20, []NodeID{})
		src.PutChild(NodeID(i), 20)
		leaves = append(leaves, p)
	}
	return sim, net, src, leaves
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

func BenchmarkChunkFanout(b *testing.B) {
	sim, net, src, leaves := fanoutFixture(8)
	_ = leaves
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.EmitChunk(int64(i))
		// Not Drain: the leaves' starvation watchdogs reschedule forever.
		sim.Run(sim.Now() + 0.05)
	}
	_ = net
}
