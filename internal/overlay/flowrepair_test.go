package overlay_test

import (
	"testing"

	"vdm/internal/flow"
	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
)

// chainHooks is a protocol that never rejoins: an orphan stays orphaned.
type chainHooks struct{}

func (chainHooks) HandleProtocol(overlay.NodeID, overlay.Message) {}
func (chainHooks) OnOrphaned(overlay.NodeID, overlay.NodeID)      {}

// flowChain builds the chain 0 → 1 → … → n−1 of flow peers on a
// protocoltest rig, hosts 10 ms apart, every peer connected at t = 0, so
// each watchdog ticks at every multiple of StarveCheckPeriodS.
func flowChain(n int, fc flow.Config) (*protocoltest.Rig, []*overlay.Peer) {
	pts := make([]protocoltest.Point, n)
	for i := range pts {
		pts[i] = protocoltest.Point{X: 10 * float64(i)}
	}
	r := protocoltest.New(pts)
	peers := make([]*overlay.Peer, n)
	path := []overlay.NodeID{}
	for i := range peers {
		id := overlay.NodeID(i)
		pc := r.PeerConfig(id, 1)
		pc.Flow = &fc
		p := overlay.NewPeer(r.Net, pc)
		p.SetHooks(chainHooks{})
		r.Net.Register(id, p)
		if i > 0 {
			peers[i-1].PutChild(id, 10)
			p.ApplyConnect(id-1, 10, path)
		}
		path = append(path, id)
		peers[i] = p
	}
	return r, peers
}

// emitAt schedules the source's chunks from…to−1, one every 10 ms from t.
func emitAt(r *protocoltest.Rig, src *overlay.Peer, t float64, from, to int64) {
	for seq := from; seq < to; seq++ {
		s := seq
		r.Sim.At(t+0.01*float64(seq-from), func() { src.EmitChunk(s) })
	}
}

// filter wraps a handler and drops every message drop reports true for.
type filter struct {
	h    overlay.Handler
	drop func(from overlay.NodeID, m overlay.Message) bool
}

func (f filter) HandleMessage(from overlay.NodeID, m overlay.Message) {
	if !f.drop(from, m) {
		f.h.HandleMessage(from, m)
	}
}

// deadUplink makes peers[victim]'s parent silently drop its stream from
// chunk seq on: the victim discards every chunk from that parent at or
// past seq, while control still flows both ways.
func deadUplink(r *protocoltest.Rig, peers []*overlay.Peer, victim int, seq int64) {
	parent := peers[victim].ParentID()
	r.Net.Register(overlay.NodeID(victim), filter{peers[victim], func(from overlay.NodeID, m overlay.Message) bool {
		c, ok := m.(overlay.DataChunk)
		return ok && from == parent && c.Seq >= seq
	}})
}

// pullsTo records the stall pulls and NACKs each peer sends, by target.
func pullsTo(r *protocoltest.Rig, from overlay.NodeID) map[overlay.NodeID]int {
	got := map[overlay.NodeID]int{}
	r.Net.TraceFn = func(_ float64, f, to overlay.NodeID, m overlay.Message) {
		if _, ok := m.(overlay.DataNack); ok && f == from {
			got[to]++
		}
	}
	return got
}

// TestFlowIdleArmsNoTimer: once a stream through source → a → b ends and
// b's last round of stall pulls is spent, no flow timer is armed — the
// next event on the queue is the starvation watchdog's tick — and each
// watchdog tick re-opens at most one round of 1 + FlowNackRetries pulls.
// It logs the events and b's pulls over 10 s of idle.
func TestFlowIdleArmsNoTimer(t *testing.T) {
	r, peers := flowChain(3, flow.Config{})
	emitAt(r, peers[0], 0.1, 0, 100)
	r.Run(2)
	for _, p := range peers[1:] {
		if got := p.Stats().Received; got != 100 {
			t.Fatalf("peer %d received %d of 100", p.ID(), got)
		}
	}
	b := peers[2]
	events, deliveries, pulls := r.Sim.Processed(), r.Net.Deliveries(), b.FlowStats().StallPulls
	const round = 1 + overlay.FlowNackRetries
	for k := 1; k <= 2; k++ {
		watchdog := float64(k) * overlay.StarveCheckPeriodS
		if next, ok := r.Sim.NextAt(); !ok || next != watchdog {
			t.Fatalf("at %.2f s the next event is at %v (pending %v), want the watchdog tick at %v: a timer outlived the work",
				r.Sim.Now(), next, ok, watchdog)
		}
		before := b.FlowStats().StallPulls
		r.Run(watchdog + 1)
		if n := b.FlowStats().StallPulls - before; n < 1 || n > round {
			t.Fatalf("watchdog tick %d drew %d stall pulls from the silent uplink, want 1…%d", k, n, round)
		}
	}
	r.Run(2 + 10)
	events = r.Sim.Processed() - events
	t.Logf("10 s of idle: %d events (%d timers), b sent %d stall pulls",
		events, events-(r.Net.Deliveries()-deliveries), b.FlowStats().StallPulls-pulls)
}

// TestFlowRepairSkipsOwnChild: a peer whose only probed repair candidate
// has since become its child pulls a dead uplink's stream from its
// grandparent. The child gets the stream only through it, so it could
// answer only after its own pulls had reached further up.
func TestFlowRepairSkipsOwnChild(t *testing.T) {
	r, peers := flowChain(4, flow.Config{FECGroup: -1})
	b := peers[2]
	b.OfferRepairCandidate(3, 1)
	pulls := pullsTo(r, 2)
	deadUplink(r, peers, 2, 40)
	emitAt(r, peers[0], 0.1, 0, 100)
	r.Run(4)
	for _, p := range peers[2:] {
		if got := p.Stats().Received; got != 100 {
			t.Errorf("peer %d received %d of 100 (flow stats %+v)", p.ID(), got, p.FlowStats())
		}
	}
	if pulls[3] != 0 || pulls[0] == 0 {
		t.Errorf("b's NACKs and pulls by target %v, want them at grandparent 0 and none at child 3", pulls)
	}
}

// TestFlowPullRoundSurvivesLoss: a repair target that ignores a silent
// uplink's first two stall pulls still feeds the victim on the third,
// long before the watchdog re-opens the round.
func TestFlowPullRoundSurvivesLoss(t *testing.T) {
	r, peers := flowChain(3, flow.Config{FECGroup: -1})
	deadUplink(r, peers, 2, 40)
	ignored := 0
	r.Net.Register(0, filter{peers[0], func(from overlay.NodeID, m overlay.Message) bool {
		if _, ok := m.(overlay.DataNack); ok && from == 2 && ignored < 2 {
			ignored++
			return true
		}
		return false
	}})
	emitAt(r, peers[0], 0.1, 0, 100)
	r.Run(overlay.StarveCheckPeriodS - 0.1)
	if ignored != 2 {
		t.Fatalf("the repair target ignored %d pulls, want 2", ignored)
	}
	if got := peers[2].Stats().Received; got != 100 {
		t.Fatalf("victim received %d of 100 before the watchdog tick (flow stats %+v)", got, peers[2].FlowStats())
	}
}

// TestFlowPausedStreamReachesSilentUplink: with the parent silently
// dropping its stream, a stream that pauses past the victim's rounds of
// stall pulls and then resumes reaches the victim within one watchdog
// period of the resume.
func TestFlowPausedStreamReachesSilentUplink(t *testing.T) {
	r, peers := flowChain(3, flow.Config{FECGroup: -1})
	deadUplink(r, peers, 2, 40)
	const resume = 3.0
	emitAt(r, peers[0], 0.1, 0, 60)
	emitAt(r, peers[0], resume, 60, 100)
	r.Run(resume)
	if got := peers[2].Stats().Received; got != 60 {
		t.Fatalf("victim received %d of the 60 chunks sent before the pause", got)
	}
	r.Run(resume + overlay.StarveCheckPeriodS)
	if got := peers[2].Stats().Received; got != 100 {
		t.Fatalf("victim received %d of 100 within %v s of the resume (flow stats %+v)",
			got, overlay.StarveCheckPeriodS, peers[2].FlowStats())
	}
}
