package overlay_test

import (
	"math"
	"slices"
	"testing"

	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
)

// walker is the smallest rule over the shared descent: it descends into
// the closest child while one answers and attaches where none does. With
// attachFirst it visits a node by asking to connect, as BTP does.
type walker struct {
	overlay.Descent
	attachFirst bool
}

func (w *walker) Visit(id overlay.NodeID) {
	if w.attachFirst {
		w.Conn(id)
		return
	}
	w.Info(id)
}

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

// descentRig places the source stub 0, a child stub 1 and the walker 2
// within a few milliseconds of each other.
func descentRig() (*protocoltest.Rig, *walker, *stub, *stub) {
	r := protocoltest.New([]protocoltest.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 5}})
	src := &stub{net: r.Net, id: 0}
	kid := &stub{net: r.Net, id: 1}
	w := &walker{}
	w.Init(overlay.NewPeer(r.Net, r.PeerConfig(2, 4)), w, nil)
	r.Net.Register(0, src)
	r.Net.Register(1, kid)
	r.Net.Register(2, w)
	return r, w, src, kid
}

var child1 = []overlay.ChildInfo{{ID: 1, Dist: 5}}

func last(tokens []int) int { return tokens[len(tokens)-1] }

// TestDescentIgnoresStaleInfoTimeout: the walk left the source for its
// child long before the source's info timeout fires; the timeout must not
// touch the walk that has moved on.
func TestDescentIgnoresStaleInfoTimeout(t *testing.T) {
	r, w, src, kid := descentRig()
	w.StartJoin() // InfoRequest to the source at t=0, timeout at t=2
	r.Sim.At(1, func() {
		w.HandleMessage(0, overlay.InfoResponse{Token: last(src.info), Children: child1, Connected: true})
	}) // probe the child, then ask it (timeout at ≈3)
	r.Run(2.5)
	if w.Target() != 1 || len(kid.info) != 1 || len(src.info) != 1 {
		t.Fatalf("target %d, %d requests to the source, %d to the child: the stale timeout acted",
			w.Target(), len(src.info), len(kid.info))
	}
	r.Run(3.5)
	if len(src.info) != 2 {
		t.Fatalf("the child's own timeout did not restart the walk (%d requests to the source)", len(src.info))
	}
}

// TestDescentIgnoresStaleConnTimeout: the same for an attach-first walk,
// refused by the source and stepped down to its child.
func TestDescentIgnoresStaleConnTimeout(t *testing.T) {
	r, w, src, kid := descentRig()
	w.attachFirst = true
	w.StartJoin() // ConnRequest to the source at t=0, timeout at t=2
	r.Sim.At(1, func() {
		w.HandleMessage(0, overlay.ConnResponse{Token: last(src.conn), Children: child1})
	}) // step down: probe the child, then ask it (timeout at ≈3)
	r.Run(2.5)
	if w.Target() != 1 || len(kid.conn) != 1 || len(src.conn) != 1 {
		t.Fatalf("target %d, %d requests to the source, %d to the child: the stale timeout acted",
			w.Target(), len(src.conn), len(kid.conn))
	}
}

// TestDescentIgnoresOldConnToken: an acceptance carrying the token of an
// earlier step is not an answer to the request in flight.
func TestDescentIgnoresOldConnToken(t *testing.T) {
	r, w, src, _ := descentRig()
	w.StartJoin()
	r.Run(0.1)
	old := last(src.info)
	w.HandleMessage(0, overlay.InfoResponse{Token: old, Connected: true}) // no children: attach
	r.Run(0.2)
	if len(src.conn) != 1 {
		t.Fatalf("%d ConnRequests, want 1", len(src.conn))
	}
	w.HandleMessage(0, overlay.ConnResponse{Token: old, Accepted: true, RootPath: []overlay.NodeID{0}})
	if w.Connected() {
		t.Fatal("an acceptance with an old token connected the walker")
	}
	w.HandleMessage(0, overlay.ConnResponse{Token: last(src.conn), Accepted: true, RootPath: []overlay.NodeID{0}})
	if !w.Connected() || w.ParentID() != 0 || w.Joining() {
		t.Fatalf("connected=%v parent=%d joining=%v after the real acceptance", w.Connected(), w.ParentID(), w.Joining())
	}
}

// switching connects the walker under the source by hand and runs a
// switch walk at the child up to its ConnRequest.
func switching(t *testing.T) (*protocoltest.Rig, *walker, *stub) {
	t.Helper()
	r, w, _, kid := descentRig()
	w.MarkJoinStart()
	w.ApplyConnect(0, 50, []overlay.NodeID{0})
	w.Refine(1)
	r.Run(0.1)
	w.HandleMessage(1, overlay.InfoResponse{Token: last(kid.info), Connected: true}) // attach at the child
	r.Run(0.2)
	if !w.Switching() || len(kid.conn) != 1 {
		t.Fatalf("switching=%v with %d ConnRequests: the switch did not start", w.Switching(), len(kid.conn))
	}
	return r, w, kid
}

// TestDescentSwitchRefusedClearsSwitching: a refused switch leaves the
// node where it was, no longer switching.
func TestDescentSwitchRefusedClearsSwitching(t *testing.T) {
	_, w, kid := switching(t)
	w.HandleMessage(1, overlay.ConnResponse{Token: last(kid.conn)})
	if w.Switching() || w.Joining() || w.ParentID() != 0 {
		t.Fatalf("switching=%v joining=%v parent=%d after the refusal", w.Switching(), w.Joining(), w.ParentID())
	}
}

// TestDescentOrphanMidSwitchClearsSwitching: an orphaning abandons the
// switch walk for a rejoin, which must not inherit the switch mark.
func TestDescentOrphanMidSwitchClearsSwitching(t *testing.T) {
	_, w, _ := switching(t)
	w.HandleMessage(0, overlay.LeaveNotify{GrandparentHint: overlay.None})
	if w.Switching() || !w.Joining() || w.Refining() {
		t.Fatalf("switching=%v joining=%v refining=%v after the orphaning", w.Switching(), w.Joining(), w.Refining())
	}
}

// TestDescentBacksOffAfterFiveFailures: five unanswered attempts restart
// at once, the fifth failure backs off five seconds, and the sixth
// attempt connects.
func TestDescentBacksOffAfterFiveFailures(t *testing.T) {
	r, w, src, _ := descentRig()
	w.StartJoin()
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
	w.HandleMessage(0, overlay.InfoResponse{Token: last(src.info), Connected: true})
	r.Run(15.2)
	w.HandleMessage(0, overlay.ConnResponse{Token: last(src.conn), Accepted: true, RootPath: []overlay.NodeID{0}})
	if !w.Connected() {
		t.Fatal("the attempt after the back-off did not connect")
	}
}
