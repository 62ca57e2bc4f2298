package overlay

import (
	"slices"
	"testing"

	"vdm/internal/eventq"
	"vdm/internal/underlay"
)

// TestForwardChunkBoxesOnce pins the allocation budget of the simulated
// fan-out: forwarding a chunk to three children costs at most one object
// — the chunk boxed into a Message, shared by all three sends. Delivery
// records, queue slots and the id scratch slice are all reused.
func TestForwardChunkBoxesOnce(t *testing.T) {
	sim, src, leaves := fanoutFixture(3)
	seq := int64(0)
	emit := func() {
		seq++
		src.forwardChunk(DataChunk{Seq: seq})
		sim.Run(sim.Now() + 0.05) // past the 10 ms delivery delay
	}
	for i := 0; i < 8; i++ {
		emit() // warm the delivery records and the queue
	}
	if allocs := testing.AllocsPerRun(200, emit); allocs > 1 {
		t.Fatalf("forwardChunk to 3 children allocated %v objects per call, want ≤ 1", allocs)
	}
	for i, l := range leaves {
		if got := l.Stats().Received; got != seq {
			t.Fatalf("leaf %d received %d of %d chunks", i, got, seq)
		}
	}
}

// TestRelayForwardAllocs pins the relay's allocation budget: a peer
// forwarding an untraced chunk to its three children sends on the box the
// chunk arrived in, so the relay allocates nothing per chunk. A traced
// chunk is re-tagged and re-boxed on the way and reaches the leaves at
// depth 2.
func TestRelayForwardAllocs(t *testing.T) {
	sim, src, relay, leaves := relayFixture(3)
	const warm, runs = 8, 200
	// The chunks arrive boxed, as deliveries hand them over; AllocsPerRun
	// makes one extra call.
	boxes := make([]Message, warm+runs+1)
	for i := range boxes {
		boxes[i] = DataChunk{Seq: int64(i)}
	}
	next := 0
	relayOne := func() {
		relay.HandleMessage(src.ID(), boxes[next])
		next++
		sim.Run(sim.Now() + 0.05) // past the 10 ms delivery delay
	}
	for i := 0; i < warm; i++ {
		relayOne() // warm the delivery records and the queue
	}
	if allocs := testing.AllocsPerRun(runs, relayOne); allocs != 0 {
		t.Fatalf("relaying a chunk to 3 children allocated %v objects per chunk, want 0", allocs)
	}
	for i, l := range leaves {
		if got := l.Stats().Received; got != int64(next) {
			t.Fatalf("leaf %d received %d of %d chunks", i, got, next)
		}
	}

	var hops []int
	for _, l := range leaves {
		l.SetChunkObserver(func(c DataChunk) {
			if c.Trace != nil {
				hops = append(hops, c.Trace.Hops)
			}
		})
	}
	src.EmitData(DataChunk{Seq: int64(next), Trace: &ChunkTrace{OriginS: sim.Now()}})
	sim.Run(sim.Now() + 0.1)
	if want := []int{2, 2, 2}; !slices.Equal(hops, want) {
		t.Fatalf("traced chunk reached the leaves at hops %v, want %v", hops, want)
	}
}

// TestForwardChunkOrder pins the send order of a fan-out, which decides
// the order of the keyed draws and deliveries behind every golden
// fingerprint: regular children in ascending id, then fosters in
// ascending id.
func TestForwardChunkOrder(t *testing.T) {
	r := newRig(t, uniformRTT(12, 20))
	p := r.addPeer(0, 4, true)
	for id := NodeID(1); id < 12; id++ {
		r.addPeer(id, 1, false)
	}
	for _, c := range []NodeID{7, 3, 11, 5} {
		p.PutChild(c, 20)
	}
	for _, c := range []NodeID{9, 2, 6} {
		p.PutFoster(c, 20)
	}
	var got []NodeID
	r.net.TraceFn = func(_ float64, from, to NodeID, m Message) {
		if _, ok := m.(DataChunk); ok && from == 0 {
			got = append(got, to)
		}
	}
	p.EmitChunk(1)
	if want := []NodeID{3, 5, 7, 11, 2, 6, 9}; !slices.Equal(got, want) {
		t.Fatalf("fan-out order %v, want %v", got, want)
	}
}

// TestNetworkSendFanoutIsPerDestinationSends pins Network.SendFanout to
// the Send loop it stands for: over a lossy underlay with control loss,
// a fan-out through a duplicate and an unregistered id draws, counts,
// fails and delivers exactly as the same sends made one by one.
func TestNetworkSendFanoutIsPerDestinationSends(t *testing.T) {
	type rec struct {
		at       float64
		from, to NodeID
		typ      MsgType
	}
	type outcome struct {
		sent, delivered []rec
		failed          [][]NodeID
		ctrs            CounterSnapshot
	}
	tos := []NodeID{4, 1, 6, 2, 4, 3} // 4 twice; 6 is never registered
	run := func(fanout bool) outcome {
		const n = 7
		u := underlay.NewStatic(uniformRTT(n, 0))
		u.LossP = make([][]float64, n)
		for i := range u.LossP {
			u.LossP[i] = make([]float64, n)
			for j := range u.LossP[i] {
				u.LossP[i][j] = 0.1 * float64((i+j)%4)
				if i != j {
					u.RTTms[i][j] = float64(4 + (i*j)%5)
				}
			}
		}
		sim := eventq.New()
		net := NewNetwork(sim, u, 7)
		net.CtrlLossProb = 0.3
		var o outcome
		net.TraceFn = func(at float64, from, to NodeID, m Message) {
			o.sent = append(o.sent, rec{at, from, to, TypeOf(m)})
		}
		for id := NodeID(1); id <= 4; id++ {
			net.Register(id, handlerFunc(func(from NodeID, m Message) {
				o.delivered = append(o.delivered, rec{sim.Now(), from, id, TypeOf(m)})
			}))
		}
		for i := 0; i < 40; i++ {
			var m Message = DataChunk{Seq: int64(i)}
			if i%2 == 1 {
				m = PathUpdate{Path: []NodeID{0}}
			}
			from := NodeID(i % 2 * 5) // 0 or 5
			var failed []NodeID
			if fanout {
				failed = net.SendFanout(from, tos, m, nil)
			} else {
				for _, to := range tos {
					if !net.Send(from, to, m) {
						failed = append(failed, to)
					}
				}
			}
			o.failed = append(o.failed, failed)
			sim.Run(sim.Now() + 0.003)
		}
		sim.Run(sim.Now() + 1)
		o.ctrs = net.Counters().Snapshot()
		return o
	}
	want, got := run(false), run(true)
	if c := want.ctrs; c.DataDrops == 0 || c.CtrlDrops == 0 || c.Undeliver == 0 {
		t.Fatalf("counters %+v: the fixture exercised no data loss, control loss or failed send", c)
	}
	if !slices.Equal(got.sent, want.sent) {
		t.Fatalf("traced sends differ:\nfan-out %v\nsends   %v", got.sent, want.sent)
	}
	if !slices.Equal(got.delivered, want.delivered) {
		t.Fatalf("deliveries differ:\nfan-out %v\nsends   %v", got.delivered, want.delivered)
	}
	if !slices.EqualFunc(got.failed, want.failed, slices.Equal) {
		t.Fatalf("failed lists differ:\nfan-out %v\nsends   %v", got.failed, want.failed)
	}
	if got.ctrs != want.ctrs {
		t.Fatalf("counters differ: fan-out %+v, sends %+v", got.ctrs, want.ctrs)
	}
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(from NodeID, m Message)

func (f handlerFunc) HandleMessage(from NodeID, m Message) { f(from, m) }
