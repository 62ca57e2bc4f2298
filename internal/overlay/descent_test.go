package overlay_test

import (
	"math"
	"slices"
	"testing"

	"vdm/internal/core"
	"vdm/internal/hmtp"
	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
	"vdm/internal/rng"
)

// walker is the smallest rule over the shared descent: it descends into
// the closest child while one answers and attaches where none does.
type walker struct{ overlay.Descent }

func (w *walker) Decide(kids []overlay.ChildInfo, res overlay.ProbeResult) {
	if best, _ := w.Closest(kids, res); best != overlay.None {
		w.Info(best)
		return
	}
	w.Conn(w.Target())
}

func (w *walker) Joined(from overlay.NodeID, m overlay.ConnResponse) {
	w.ApplyConnect(from, 0, m.RootPath)
}

// newRule builds the rule under test over the peer pc on net, returning
// it as the protocol the rig registers and as its descent.
type newRule func(net overlay.Bus, pc overlay.PeerConfig) (overlay.Protocol, *overlay.Descent)

// rules are the rows the fence tests run: the walker, and VDM's rule,
// whose Case I/III decisions take the walker's steps in the rig below.
var rules = []struct {
	name string
	new  newRule
}{
	{"walker", func(net overlay.Bus, pc overlay.PeerConfig) (overlay.Protocol, *overlay.Descent) {
		w := &walker{}
		w.Init(overlay.NewPeer(net, pc), w, nil)
		return w, &w.Descent
	}},
	{"vdm", func(net overlay.Bus, pc overlay.PeerConfig) (overlay.Protocol, *overlay.Descent) {
		n := core.New(net, pc, core.Config{}, nil)
		return n, &n.Descent
	}},
}

// eachRule runs test once per row of rules.
func eachRule(t *testing.T, test func(t *testing.T, rule newRule)) {
	for _, row := range rules {
		t.Run(row.name, func(t *testing.T) { test(t, row.new) })
	}
}

// stub is a scripted peer: it answers pings and records the tokens of the
// requests it gets, which the test answers by hand.
type stub struct {
	net        *overlay.Network
	id         overlay.NodeID
	info, conn []int
	infoAt     []float64
}

func (s *stub) HandleMessage(from overlay.NodeID, m overlay.Message) {
	switch m := m.(type) {
	case overlay.Ping:
		s.net.Send(s.id, from, overlay.Pong{Token: m.Token})
	case overlay.InfoRequest:
		s.info = append(s.info, m.Token)
		s.infoAt = append(s.infoAt, s.net.Now())
	case overlay.ConnRequest:
		s.conn = append(s.conn, m.Token)
	}
}

// descentRig places the source stub 0, a child stub 1 and the rule's node
// 2 within a few milliseconds of each other.
func descentRig(rule newRule) (*protocoltest.Rig, overlay.Protocol, *overlay.Descent, *stub, *stub) {
	r := protocoltest.New([]protocoltest.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 5}})
	src := &stub{net: r.Net, id: 0}
	kid := &stub{net: r.Net, id: 1}
	p, d := rule(r.Net, r.PeerConfig(2, 4))
	r.Net.Register(0, src)
	r.Net.Register(1, kid)
	r.Net.Register(2, p)
	return r, p, d, src, kid
}

var child1 = []overlay.ChildInfo{{ID: 1, Dist: 5}}

func last(tokens []int) int { return tokens[len(tokens)-1] }

// TestDescentIgnoresStaleInfoTimeout: the walk left the source for its
// child long before the source's info timeout fires; the timeout must not
// touch the walk that has moved on.
func TestDescentIgnoresStaleInfoTimeout(t *testing.T) {
	eachRule(t, func(t *testing.T, rule newRule) {
		r, p, d, src, kid := descentRig(rule)
		p.StartJoin() // InfoRequest to the source at t=0, timeout at t=2
		r.Sim.At(1, func() {
			d.HandleMessage(0, overlay.InfoResponse{Token: last(src.info), Children: child1, Connected: true})
		}) // probe the child, then ask it (timeout at ≈3)
		r.Run(2.5)
		if d.Target() != 1 || len(kid.info) != 1 || len(src.info) != 1 {
			t.Fatalf("target %d, %d requests to the source, %d to the child: the stale timeout acted",
				d.Target(), len(src.info), len(kid.info))
		}
		r.Run(3.5)
		if len(src.info) != 2 {
			t.Fatalf("the child's own timeout did not restart the walk (%d requests to the source)", len(src.info))
		}
	})
}

// TestDescentIgnoresStaleConnTimeout: the same at the connection stage.
// The source refuses the walk, which steps down to the child and asks it
// to connect before the source's conn timeout fires.
func TestDescentIgnoresStaleConnTimeout(t *testing.T) {
	eachRule(t, func(t *testing.T, rule newRule) {
		r, p, d, src, kid := descentRig(rule)
		p.StartJoin()
		r.Sim.At(0.05, func() {
			d.HandleMessage(0, overlay.InfoResponse{Token: last(src.info), Connected: true})
		}) // no children: ask the source to connect (timeout at ≈2.05)
		r.Sim.At(1, func() {
			d.HandleMessage(0, overlay.ConnResponse{Token: last(src.conn), Children: child1})
		}) // step down: probe the child, then ask it for its children
		r.Sim.At(1.5, func() {
			d.HandleMessage(1, overlay.InfoResponse{Token: last(kid.info), Connected: true})
		}) // no children: ask the child to connect (timeout at 3.5)
		r.Run(2.5)
		if d.Target() != 1 || len(kid.conn) != 1 || len(src.conn) != 1 || len(src.info) != 1 {
			t.Fatalf("target %d, %d/%d info/conn requests to the source, %d conn to the child: the stale timeout acted",
				d.Target(), len(src.info), len(src.conn), len(kid.conn))
		}
	})
}

// TestDescentIgnoresOldConnToken: an acceptance carrying the token of an
// earlier step is not an answer to the request in flight.
func TestDescentIgnoresOldConnToken(t *testing.T) {
	eachRule(t, func(t *testing.T, rule newRule) {
		r, p, d, src, _ := descentRig(rule)
		p.StartJoin()
		r.Run(0.1)
		old := last(src.info)
		d.HandleMessage(0, overlay.InfoResponse{Token: old, Connected: true}) // no children: attach
		r.Run(0.2)
		if len(src.conn) != 1 {
			t.Fatalf("%d ConnRequests, want 1", len(src.conn))
		}
		d.HandleMessage(0, overlay.ConnResponse{Token: old, Accepted: true, RootPath: []overlay.NodeID{0}})
		if d.Connected() {
			t.Fatal("an acceptance with an old token connected the node")
		}
		d.HandleMessage(0, overlay.ConnResponse{Token: last(src.conn), Accepted: true, RootPath: []overlay.NodeID{0}})
		if !d.Connected() || d.ParentID() != 0 || d.Joining() {
			t.Fatalf("connected=%v parent=%d joining=%v after the real acceptance", d.Connected(), d.ParentID(), d.Joining())
		}
	})
}

// switching connects the rule's node under the source by hand and runs a
// switch walk at the child up to its ConnRequest.
func switching(t *testing.T, rule newRule) (*overlay.Descent, *stub) {
	t.Helper()
	r, _, d, _, kid := descentRig(rule)
	d.MarkJoinStart()
	d.ApplyConnect(0, 50, []overlay.NodeID{0})
	d.Refine(1)
	r.Run(0.1)
	d.HandleMessage(1, overlay.InfoResponse{Token: last(kid.info), Connected: true}) // attach at the child
	r.Run(0.2)
	if !d.Switching() || len(kid.conn) != 1 {
		t.Fatalf("switching=%v with %d ConnRequests: the switch did not start", d.Switching(), len(kid.conn))
	}
	return d, kid
}

// TestDescentSwitchRefusedClearsSwitching: a refused switch leaves the
// node where it was, no longer switching.
func TestDescentSwitchRefusedClearsSwitching(t *testing.T) {
	eachRule(t, func(t *testing.T, rule newRule) {
		d, kid := switching(t, rule)
		d.HandleMessage(1, overlay.ConnResponse{Token: last(kid.conn)})
		if d.Switching() || d.Joining() || d.ParentID() != 0 {
			t.Fatalf("switching=%v joining=%v parent=%d after the refusal", d.Switching(), d.Joining(), d.ParentID())
		}
	})
}

// TestDescentOrphanMidSwitchClearsSwitching: an orphaning abandons the
// switch walk for a rejoin, which must not inherit the switch mark.
func TestDescentOrphanMidSwitchClearsSwitching(t *testing.T) {
	eachRule(t, func(t *testing.T, rule newRule) {
		d, _ := switching(t, rule)
		d.HandleMessage(0, overlay.LeaveNotify{GrandparentHint: overlay.None})
		if d.Switching() || !d.Joining() || d.Refining() {
			t.Fatalf("switching=%v joining=%v refining=%v after the orphaning", d.Switching(), d.Joining(), d.Refining())
		}
	})
}

// TestDescentBacksOffAfterFiveFailures: five unanswered attempts restart
// at once, the fifth failure backs off five seconds, and the sixth
// attempt connects.
func TestDescentBacksOffAfterFiveFailures(t *testing.T) {
	r, p, d, src, _ := descentRig(rules[0].new)
	p.StartJoin()
	r.Run(15.1)
	// Offsets of each request's arrival from the first's: every attempt
	// waits out one info timeout, then the back-off adds five seconds.
	var got []float64
	for _, at := range src.infoAt {
		got = append(got, math.Round((at-src.infoAt[0])*1000)/1000)
	}
	if want := []float64{0, 2, 4, 6, 8, 15}; !slices.Equal(got, want) {
		t.Fatalf("requests at offsets %v, want %v", got, want)
	}
	d.HandleMessage(0, overlay.InfoResponse{Token: last(src.info), Connected: true})
	r.Run(15.2)
	d.HandleMessage(0, overlay.ConnResponse{Token: last(src.conn), Accepted: true, RootPath: []overlay.NodeID{0}})
	if !d.Connected() {
		t.Fatal("the attempt after the back-off did not connect")
	}
}

// TestDescentBackoffRestartGuard: the restart armed after the fifth
// failure fires only if the node is still alive, unconnected and not
// walking. A node that leaves during the back-off, or starts another walk
// in it, sees the backed-off restart do nothing: no WalkStart and no
// InfoRequest when it fires.
func TestDescentBackoffRestartGuard(t *testing.T) {
	for _, c := range []struct {
		name string
		act  func(p overlay.Protocol)
	}{
		{"leaves", func(p overlay.Protocol) { p.Leave() }},
		{"walks", func(p overlay.Protocol) { p.StartJoin() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			eachRule(t, func(t *testing.T, rule newRule) {
				r, p, d, src, _ := descentRig(rule)
				var starts []float64
				d.SetWalkObserver(func(e overlay.WalkEvent) {
					if e.Kind == overlay.WalkStart {
						starts = append(starts, r.Sim.Now())
					}
				})
				p.StartJoin()
				// Five attempts time out at 2, 4, …, 10; the back-off
				// restart is armed for t=15. The other walk starts at 12
				// and is still in flight (its second attempt) at 15.
				r.Run(12)
				if len(src.info) != 5 {
					t.Fatalf("%d requests to the source before the back-off, want 5", len(src.info))
				}
				c.act(p)
				r.Run(16)
				for _, at := range starts {
					if at > 14.5 {
						t.Fatalf("walk starts at %v: the backed-off restart ran", starts)
					}
				}
				for _, at := range src.infoAt {
					if at > 14.5 && at < 15.5 {
						t.Fatalf("InfoRequests at %v: the backed-off restart ran", src.infoAt)
					}
				}
			})
		})
	}
}

// TestDescentReleasesWalkWhenIdle: a switch walk that leaves the node
// where it is — a VDM refinement that keeps its parent, an HMTP round that
// finds nothing closer — drops the walk state, its timer records and the
// prober's recycled rounds, and the timers that fire after it do not pin
// them again.
func TestDescentReleasesWalkWhenIdle(t *testing.T) {
	for _, row := range []struct {
		name string
		new  newRule
	}{
		{"vdm-refine", func(net overlay.Bus, pc overlay.PeerConfig) (overlay.Protocol, *overlay.Descent) {
			n := core.New(net, pc, core.Config{RefinePeriodS: 10}, rng.New(int64(pc.ID)))
			return n, &n.Descent
		}},
		{"hmtp-refine", func(net overlay.Bus, pc overlay.PeerConfig) (overlay.Protocol, *overlay.Descent) {
			n := hmtp.New(net, pc, hmtp.Config{RefinePeriodS: 10}, rng.New(int64(pc.ID)))
			return n, &n.Descent
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			// S=(0,0), A=(10,0), B=(12,0): B under A is already where
			// either rule would put it.
			r := protocoltest.New([]protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 12, Y: 0}})
			var ds []*overlay.Descent
			for id := overlay.NodeID(0); id < 3; id++ {
				p, d := row.new(r.Net, r.PeerConfig(id, 4))
				r.Net.Register(id, p)
				ds = append(ds, d)
				if id > 0 {
					r.Sim.At(float64(id), p.StartJoin)
				}
			}
			// Rounds start every 9–11 s after the join and are over,
			// timers included, 2.1 s later.
			r.Run(16)
			b := ds[2]
			if b.ParentID() != 1 || b.Joining() || b.JoinID().Seq() < 2 {
				t.Fatalf("parent %d, joining %v, %d procedures: no refinement round ran and settled",
					b.ParentID(), b.Joining(), b.JoinID().Seq())
			}
			if b.HoldsWalk() {
				t.Fatal("the settled node still holds walk state")
			}
		})
	}
}
