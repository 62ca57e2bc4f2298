package live

import (
	"sync/atomic"
	"testing"
	"time"

	"vdm/internal/core"
	"vdm/internal/eventq"
	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/transport"
	"vdm/internal/underlay"
	"vdm/internal/wire"
)

// busRig is one overlay.Bus implementer set up with node 0 sending to
// node 1: the handle the table test drives it through.
type busRig struct {
	bus    overlay.Bus             // node 1's bus
	do     func(fn func())         // run fn on node 1's execution context
	send   func(m overlay.Message) // node 0 → node 1
	settle func()                  // let at least 0.2 bus seconds pass
	stop   func()
}

// recHandler appends to a log it shares, unlocked, with the timer
// callbacks of the test: under -race that is the serialization check.
type recHandler struct{ log *[]string }

func (h recHandler) HandleMessage(from overlay.NodeID, m overlay.Message) {
	*h.log = append(*h.log, "msg")
}

// recProto hosts the recorder on a live peer, which wants a whole
// overlay.Protocol to register.
type recProto struct {
	*core.Node
	recHandler
}

func (p recProto) HandleMessage(from overlay.NodeID, m overlay.Message) {
	p.recHandler.HandleMessage(from, m)
}

var busRTT = [][]float64{{0, 20}, {20, 0}}

func networkRig(t *testing.T, log *[]string) busRig {
	q := eventq.New()
	net := overlay.NewNetwork(q, underlay.NewStatic(busRTT), 1)
	net.Register(0, recHandler{new([]string)})
	net.Register(1, recHandler{log})
	return busRig{
		bus:    net,
		do:     func(fn func()) { fn() },
		send:   func(m overlay.Message) { net.Send(0, 1, m) },
		settle: func() { q.Run(q.Now() + 0.2) },
		stop:   func() {},
	}
}

// fabricRig puts node 0 and node 1 on different queues of a two-queue
// fabric, so every message crosses the exchange.
func fabricRig(t *testing.T, log *[]string) busRig {
	qs := []*eventq.Sim{eventq.New(), eventq.New()}
	r := overlay.NewShardRouter(underlay.NewStatic(busRTT), 1, qs, []int{0, 1}, 0.005,
		func(overlay.NodeID, float64) bool { return true })
	r.Net(0).Register(0, recHandler{new([]string)})
	r.Net(1).Register(1, recHandler{log})
	return busRig{
		bus:  r.Net(1),
		do:   func(fn func()) { fn() },
		send: func(m overlay.Message) { r.Net(0).Send(0, 1, m) },
		settle: func() {
			// Epochs of 5 ms, half the 10 ms one-way delay.
			for end := qs[1].Now() + 0.2; qs[1].Now() < end; {
				h := qs[1].Now() + 0.005
				qs[0].RunBefore(h)
				qs[1].RunBefore(h)
				if _, err := r.Exchange(); err != nil {
					t.Fatal(err)
				}
			}
		},
		stop: func() {},
	}
}

// liveRig puts node 1 on a live peer and sends to it from a bare socket
// standing in for node 0.
func liveRig(t *testing.T, log *[]string) busRig {
	tr0, tr1 := newUDP(t), newUDP(t)
	if err := tr0.SetRoute(1, tr1.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	var bus overlay.Bus
	p := NewPeer(tr1, time.Now(), func(b overlay.Bus) overlay.Protocol {
		bus = b
		node := core.New(b, overlay.PeerConfig{ID: 1, Source: 0, MaxDegree: 2}, core.Config{}, nil)
		return recProto{node, recHandler{log}}
	})
	return busRig{
		bus: bus,
		do: func(fn func()) {
			if !p.Call(fn) {
				t.Fatal("Call on a running peer failed")
			}
		},
		send:   func(m overlay.Message) { tr0.Send(0, 1, m) },
		settle: func() { time.Sleep(250 * time.Millisecond) },
		stop:   p.Stop,
	}
}

// TestBusAfterArgContract holds the three overlay.Bus implementers — the
// single-queue Network, a two-queue ShardRouter fabric, the live peerBus
// over UDP — to the AfterArg contract: fn(arg) fires exactly
// once, d seconds on, serialized with the owning peer's message handling.
func TestBusAfterArgContract(t *testing.T) {
	rigs := map[string]func(*testing.T, *[]string) busRig{
		"network": networkRig, "shard-fabric": fabricRig, "live": liveRig,
	}
	for name, mk := range rigs {
		t.Run(name, func(t *testing.T) {
			var log []string
			rig := mk(t, &log)
			defer rig.stop()

			type rec struct{ fired int }
			arg := &rec{}
			var armedAt, firedAt float64
			rig.do(func() {
				armedAt = rig.bus.Now()
				rig.bus.AfterArg(0.05, func(a any) {
					a.(*rec).fired++
					firedAt = rig.bus.Now()
					log = append(log, "timer")
				}, arg)
			})
			for i := 0; i < 20; i++ {
				rig.send(overlay.Ping{Token: i})
			}
			rig.settle()

			var got []string
			var fired int
			rig.do(func() { got, fired = append(got, log...), arg.fired })
			if fired != 1 {
				t.Fatalf("AfterArg callback fired %d times, want 1", fired)
			}
			if firedAt-armedAt < 0.05 {
				t.Fatalf("fired %.4f s after arming, want ≥ 0.05", firedAt-armedAt)
			}
			msgs, timers := 0, 0
			for _, e := range got {
				if e == "msg" {
					msgs++
				} else {
					timers++
				}
			}
			if msgs != 20 || timers != 1 {
				t.Fatalf("log holds %d messages and %d timer entries, want 20 and 1", msgs, timers)
			}
		})
	}
}

// TestLiveStaleJoinTimerFenced: with AfterArg on the live bus, core arms
// its stage timeouts there as recycled joinTimer records too, and a fired
// record checks nothing but (joinState pointer, stage, token). A reconnect
// queries the grandparent hint; it answers "not connected" at once, so
// the same joinState turns to the source, still in the info stage, with
// the first query's timer pending — only its token tells that timer is
// stale. That second query is lost, so its own timer fires: one
// join_timeout for the source, a full timeout after the query. An
// unfenced stale timer would report it sooner, and restart the attempt.
func TestLiveStaleJoinTimerFenced(t *testing.T) {
	const infoTimeoutS = 0.3
	trSrc, trJoin, trHint := newUDP(t), newUDP(t), newUDP(t)
	for id, tr := range map[overlay.NodeID]*transport.UDP{0: trSrc, 2: trHint} {
		if err := trJoin.SetRoute(id, tr.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	epoch := time.Now()
	sink := &obs.MemSink{}

	src := NewPeer(trSrc, epoch, func(b overlay.Bus) overlay.Protocol {
		return core.New(b, overlay.PeerConfig{ID: 0, Source: 0, MaxDegree: 4, IsSource: true}, core.Config{}, nil)
	})
	defer src.Stop()
	// Peer 2, the hint: answers every query "not connected", 50 ms late —
	// the head start the stale timer has on the one armed after it.
	trHint.Register(2, func(from overlay.NodeID, m overlay.Message) {
		if q, ok := m.(overlay.InfoRequest); ok {
			time.AfterFunc(50*time.Millisecond, func() {
				trHint.Send(2, from, overlay.InfoResponse{Token: q.Token})
			})
		}
	})
	joiner := NewPeer(trJoin, epoch, func(b overlay.Bus) overlay.Protocol {
		n := core.New(b, overlay.PeerConfig{ID: 1, Source: 0, MaxDegree: 2, InfoTimeoutS: infoTimeoutS}, core.Config{}, nil)
		n.SetTracer(obs.NewTracer(sink, "vdm", 1, b.Now))
		return n
	})
	defer joiner.Stop()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	joiner.StartJoin()
	waitFor("the first join", joiner.Connected)

	// Lose the joiner's next query to the source, the reconnect's second:
	// its first transmission and every retry of it, matched by Seq.
	var lostSeq atomic.Uint32
	trJoin.SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		if _, ok := f.Msg.(overlay.InfoRequest); ok && to == 0 {
			lostSeq.CompareAndSwap(0, f.Seq)
		}
		return f.Kind == wire.KindMsg && f.Seq != 0 && f.Seq == lostSeq.Load()
	})
	trSrc.Send(0, 1, overlay.LeaveNotify{GrandparentHint: 2})
	waitFor("the reconnect", func() bool {
		return joiner.Stats().OrphanCount == 1 && joiner.Connected()
	})

	// The reconnect's query to the source, and the timeouts reported for
	// the source. Timers never fire early, so the query's own timeout
	// comes a full InfoTimeoutS after it; the hint query's stale timer
	// fires 50 ms sooner than that.
	var queried float64 = -1
	var timeouts []float64
	orphaned := false
	for _, e := range sink.Events() {
		switch {
		case e.Type == obs.EvOrphaned:
			orphaned = true
		case orphaned && e.Type == obs.EvJoinStep && e.Target == 0 && queried < 0:
			queried = e.T
		case e.Type == obs.EvJoinTimeout && e.Target == 0:
			timeouts = append(timeouts, e.T)
		}
	}
	if queried < 0 || len(timeouts) != 1 {
		t.Fatalf("reconnect queried the source at t=%v and reported timeouts for it at %v, want one of each", queried, timeouts)
	}
	if timeouts[0] < queried+infoTimeoutS {
		t.Fatalf("join_timeout for the source at t=%.6f, %.6f s after the query it is for: a stale timer got through",
			timeouts[0], timeouts[0]-queried)
	}
}
