package transport

import (
	"testing"
	"time"

	"vdm/internal/overlay"
)

// conformance_test.go pins the behavioral contract shared by the two
// transports: the same overload scenario must land in the same
// DataplaneStats counters on Mem and UDP, so flow control tuned against
// the loopback behaves identically over the wire.

// depthTransport is a Transport whose data-plane counters can be read,
// which both built-in transports are.
type depthTransport interface {
	Transport
	Dataplane() DataplaneStats
}

var (
	_ depthTransport = (*Mem)(nil)
	_ depthTransport = (*UDP)(nil)
)

// parityCounters is the tuple the two transports must agree on after the
// shared scenario runs.
type parityCounters struct {
	QueueDrops, FanoutEncodes, FanoutFrames int64
	DataDrops, Undeliver                    int64
}

func collectParity(tr depthTransport) parityCounters {
	dp := tr.Dataplane()
	return parityCounters{
		QueueDrops:    dp.QueueDrops,
		FanoutEncodes: dp.FanoutEncodes,
		FanoutFrames:  dp.FanoutFrames,
		DataDrops:     tr.Counters().DataDrops.Load(),
		Undeliver:     tr.Counters().Undeliver.Load(),
	}
}

// TestTransportDropAndFanoutParity runs one scenario — overfill a
// destination's data queue past cap, then fan one chunk out to two known
// and one unknown destination — against both transports and demands
// byte-identical counters: drop-oldest evictions, fan-out accounting, and
// undeliverable reporting all unified through DataplaneStats.
func TestTransportDropAndFanoutParity(t *testing.T) {
	const (
		queueCap = 4
		burst    = 10
	)
	want := parityCounters{
		QueueDrops:    burst - queueCap,
		FanoutEncodes: 1,
		FanoutFrames:  2, // the unknown destination never enqueues
		DataDrops:     burst - queueCap,
		Undeliver:     1,
	}

	t.Run("udp", func(t *testing.T) {
		cfg := UDPConfig{Batch: BatchConfig{
			MaxBatch:      64, // > burst: no threshold flush mid-burst
			FlushInterval: 80 * time.Millisecond,
			DestQueueCap:  queueCap,
		}}
		a, b := newUDPPair(t, cfg)
		var c2, c3 collector
		b.Register(2, c2.handler())
		b.Register(3, c3.handler())
		for _, id := range []overlay.NodeID{2, 3} {
			if err := a.SetRoute(id, b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}

		for i := 0; i < burst; i++ {
			if !a.Send(1, 2, overlay.DataChunk{Seq: int64(i)}) {
				t.Fatalf("send %d failed", i)
			}
		}
		// The burst sits in the coalescer until the 80ms timer: queue
		// depth must read exactly the surviving cap.
		if d := a.DataQueueDepth(2); d != queueCap {
			t.Fatalf("DataQueueDepth mid-burst = %d, want %d", d, queueCap)
		}
		if !waitFor(t, 2*time.Second, func() bool { return c2.count() == queueCap }) {
			t.Fatalf("delivered %d, want %d", c2.count(), queueCap)
		}

		failed := a.SendBatch(1, []overlay.NodeID{2, 3, 99}, overlay.DataChunk{Seq: 100}, nil)
		if len(failed) != 1 || failed[0] != 99 {
			t.Fatalf("failed = %v, want [99]", failed)
		}
		if !waitFor(t, 2*time.Second, func() bool { return c2.count() == queueCap+1 && c3.count() == 1 }) {
			t.Fatalf("fanout delivered %d/%d", c2.count(), c3.count())
		}
		if !waitFor(t, 2*time.Second, func() bool { return a.DataQueueDepth(2) == 0 }) {
			t.Fatalf("DataQueueDepth did not drain: %d", a.DataQueueDepth(2))
		}
		if got := collectParity(a); got != want {
			t.Fatalf("udp counters = %+v, want %+v", got, want)
		}
	})

	t.Run("mem", func(t *testing.T) {
		tr := NewMem()
		defer tr.Close()
		tr.DataQueueCap = queueCap
		var c2, c3 collector
		tr.Register(2, c2.handler())
		tr.Register(3, c3.handler())

		// Hold the transport lock through the burst so the dispatcher
		// can't drain mid-overfill — the loopback analogue of the
		// coalescer's flush window.
		tr.mu.Lock()
		for i := 0; i < burst; i++ {
			if ok, _ := tr.sendLockedEx(1, 2, overlay.DataChunk{Seq: int64(i)}); !ok {
				tr.mu.Unlock()
				t.Fatalf("send %d failed", i)
			}
		}
		if d := tr.queuedData[2]; d != queueCap {
			tr.mu.Unlock()
			t.Fatalf("queued depth mid-burst = %d, want %d", d, queueCap)
		}
		tr.mu.Unlock()

		if !waitFor(t, 2*time.Second, func() bool { return c2.count() == queueCap }) {
			t.Fatalf("delivered %d, want %d", c2.count(), queueCap)
		}

		failed := tr.SendBatch(1, []overlay.NodeID{2, 3, 99}, overlay.DataChunk{Seq: 100}, nil)
		if len(failed) != 1 || failed[0] != 99 {
			t.Fatalf("failed = %v, want [99]", failed)
		}
		if !waitFor(t, 2*time.Second, func() bool { return c2.count() == queueCap+1 && c3.count() == 1 }) {
			t.Fatalf("fanout delivered %d/%d", c2.count(), c3.count())
		}
		if !waitFor(t, 2*time.Second, func() bool { return tr.DataQueueDepth(2) == 0 }) {
			t.Fatalf("DataQueueDepth did not drain: %d", tr.DataQueueDepth(2))
		}
		if got := collectParity(tr); got != want {
			t.Fatalf("mem counters = %+v, want %+v", got, want)
		}
	})
}

// TestTransportAckNackNeverEvicted pins that queue-cap backpressure only
// sheds stream data: on the loopback transport a full data queue must not
// evict DataAck/DataNack frames, which carry the repair signal itself.
func TestTransportAckNackNeverEvicted(t *testing.T) {
	tr := NewMem()
	defer tr.Close()
	tr.DataQueueCap = 2
	var c collector
	tr.Register(2, c.handler())

	tr.mu.Lock()
	tr.sendLocked(1, 2, overlay.DataAck{Seq: 7})
	tr.sendLocked(1, 2, overlay.DataNack{Ranges: []overlay.SeqRange{{Lo: 1, Hi: 3}}})
	for i := 0; i < 6; i++ {
		tr.sendLocked(1, 2, overlay.DataChunk{Seq: int64(i)})
	}
	tr.mu.Unlock()

	// 2 control-of-the-data-plane frames + 2 surviving chunks.
	if !waitFor(t, 2*time.Second, func() bool { return c.count() == 4 }) {
		t.Fatalf("delivered %d, want 4", c.count())
	}
	msgs := c.snapshot()
	if _, ok := msgs[0].(overlay.DataAck); !ok {
		t.Fatalf("first delivery = %T, want DataAck", msgs[0])
	}
	if _, ok := msgs[1].(overlay.DataNack); !ok {
		t.Fatalf("second delivery = %T, want DataNack", msgs[1])
	}
	for i, m := range msgs[2:] {
		if want := int64(4 + i); m.(overlay.DataChunk).Seq != want {
			t.Fatalf("survivor %d = %v, want seq %d", i, m, want)
		}
	}
	if got := tr.Dataplane().QueueDrops; got != 4 {
		t.Fatalf("QueueDrops = %d, want 4", got)
	}
}
