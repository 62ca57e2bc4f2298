package overlay

import (
	"slices"
	"testing"
)

// TestForwardChunkBoxesOnce pins the allocation budget of the simulated
// fan-out: forwarding a chunk to three children costs at most one object
// — the chunk boxed into a Message, shared by all three sends. Delivery
// records, queue slots and the id scratch slice are all reused.
func TestForwardChunkBoxesOnce(t *testing.T) {
	sim, _, src, leaves := fanoutFixture(3)
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
