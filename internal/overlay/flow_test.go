package overlay_test

import (
	"slices"
	"testing"

	"vdm/internal/flow"
	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
)

// sink is a child that takes whatever it is sent and answers nothing, so
// its parent's pacing queue only drains on flow ticks.
type sink struct{}

func (sink) HandleMessage(overlay.NodeID, overlay.Message) {}

type flowSend struct {
	at  float64
	to  overlay.NodeID
	seq int64
}

// pacedSends runs a flow source with six children on a protocoltest rig:
// 200 chunks at t=0 fill every child's 64-chunk burst and leave the rest
// queued, which the flow ticks drain at 2 chunks per child per tick. It
// returns every chunk the source sent.
func pacedSends() []flowSend {
	pts := make([]protocoltest.Point, 7)
	for i := range pts {
		pts[i] = protocoltest.Point{X: float64(i), Y: 10}
	}
	r := protocoltest.New(pts)
	pc := r.PeerConfig(0, 8)
	pc.Flow = &flow.Config{RateChunksPerS: 100, FECGroup: -1}
	src := overlay.NewPeer(r.Net, pc)
	for _, c := range []overlay.NodeID{5, 2, 6, 1, 4, 3} {
		r.Net.Register(c, sink{})
		src.PutChild(c, 10)
	}
	var sends []flowSend
	r.Net.TraceFn = func(at float64, from, to overlay.NodeID, m overlay.Message) {
		if c, ok := m.(overlay.DataChunk); ok && from == 0 {
			sends = append(sends, flowSend{at, to, c.Seq})
		}
	}
	for seq := int64(1); seq <= 200; seq++ {
		src.EmitChunk(seq)
	}
	r.Run(0.5)
	return sends
}

// TestFlowDrainsBacklogsInIDOrder: a flow tick drains the per-child
// backlogs in ascending child id, so on a simulated bus the drained sends
// — and the events they schedule — come out in one order, run after run.
func TestFlowDrainsBacklogsInIDOrder(t *testing.T) {
	sends := pacedSends()
	ticks := 0
	for i := 0; i < len(sends); {
		j := i
		for j < len(sends) && sends[j].at == sends[i].at {
			j++
		}
		if at := sends[i].at; at > 0 {
			ticks++
			var kids []overlay.NodeID
			for _, s := range sends[i:j] {
				kids = append(kids, s.to)
			}
			if !slices.IsSorted(kids) || len(slices.Compact(slices.Clone(kids))) < 4 {
				t.Fatalf("tick at %v drained to %v, want at least 4 children in ascending id order", at, kids)
			}
		}
		i = j
	}
	if ticks < 10 {
		t.Fatalf("%d ticks drained a backlog, want at least 10", ticks)
	}
	if again := pacedSends(); !slices.Equal(again, sends) {
		t.Fatal("two identical runs sent different traces")
	}
}

// TestFlowRingHoldsRepairHorizon pins the retransmit ring's length on the
// virtual clock: a flow source that has cached chunks 0…n is NACKed by its
// child for two old chunks. Chunk n−1 023 must be served — a literal floor
// of two sender windows, which also covers a stall pull's ≈ 540-chunk lag
// at 2 000 chunks/s — and chunk n−FlowRetainChunks must not be, so the
// ring is no longer than its constant says.
func TestFlowRingHoldsRepairHorizon(t *testing.T) {
	const n = 3 * overlay.FlowRetainChunks
	r := protocoltest.New([]protocoltest.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	pc := r.PeerConfig(0, 2)
	pc.Flow = &flow.Config{RateChunksPerS: -1, FECGroup: -1}
	src := overlay.NewPeer(r.Net, pc)
	r.Net.Register(0, src)
	r.Net.Register(1, sink{})
	src.PutChild(1, 1)
	for seq := int64(0); seq <= n; seq++ {
		src.EmitChunk(seq)
	}
	served := func(seq int64) bool {
		before := src.FlowStats().RetransmitsServed
		r.Net.Send(1, 0, overlay.DataNack{Ranges: []overlay.SeqRange{{Lo: seq, Hi: seq}}})
		r.Run(r.Sim.Now() + 0.1)
		return src.FlowStats().RetransmitsServed > before
	}
	if !served(n - 1023) {
		t.Errorf("chunk %d, 1 023 behind the frontier %d, was not served", n-1023, n)
	}
	if old := int64(n - overlay.FlowRetainChunks); served(old) {
		t.Errorf("chunk %d, %d behind the frontier %d, was served: the ring holds more than flowRetainChunks",
			old, overlay.FlowRetainChunks, n)
	}
}
