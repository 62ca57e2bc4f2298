package core

import (
	"fmt"

	"vdm/internal/obs"
	"vdm/internal/overlay"
)

// hintDetail renders the grandparent hint carried by an orphan event.
func hintDetail(hint overlay.NodeID) string {
	if hint == overlay.None {
		return "no-hint"
	}
	return fmt.Sprintf("hint:%d", hint)
}

// Decide runs the directionality test over the probed children of the
// current target — one iteration of the dissertation's "Contact(S)" — and
// moves the walk on: descend on Case III, splice on Case II, attach on
// Case I.
func (n *Node) Decide(kids []overlay.ChildInfo, res overlay.ProbeResult) {
	// Every probed candidate doubles as repair-neighbor material for the
	// reliable data plane (no-op unless flow is enabled): the join walk
	// is the one moment a peer holds measured distances to non-parents.
	for _, p := range res {
		n.OfferRepairCandidate(p.ID, p.D)
	}
	to := n.Target()
	dTarget, _ := n.Dist(to)
	var buf3, buf2 [8]overlay.NodeID
	case3, case2 := buf3[:0], buf2[:0]
	for _, ci := range kids {
		d, ok := res.Get(ci.ID)
		if !ok {
			continue // child did not answer: treat as departed
		}
		switch Classify(dTarget, ci.Dist, d, n.cfg.Gamma) {
		case CaseIII:
			if !n.Visited(ci.ID) {
				case3 = append(case3, ci.ID)
			}
		case CaseII:
			case2 = append(case2, ci.ID)
		}
	}

	if len(case3) > 0 {
		// "Select closest of CaseIII, continue from closest one."
		next, _ := res.Closest(case3)
		n.emit(obs.EvJoinDecide, obs.Event{Target: int64(next), Case: "III", Step: len(case3), Value: dTarget})
		n.Info(next)
		return
	}
	if len(case2) > 0 && !n.Refining() {
		// "N is between S and D(1..n): connect as long as N allows."
		adopt := sortByDist(case2, res)
		if free := n.FreeDegree(); len(adopt) > free {
			adopt = adopt[:free]
		}
		if len(adopt) > 0 {
			n.emit(obs.EvJoinDecide, obs.Event{Target: int64(to), Case: "II", Step: len(adopt), Value: dTarget})
			n.Splice(to, adopt)
			return
		}
	}
	// Case I: no directional child — attach to the queried node itself.
	n.emit(obs.EvJoinDecide, obs.Event{Target: int64(to), Case: "I", Value: dTarget})
	if n.Refining() && to == n.ParentID() && !n.fostered {
		// The current parent is already the best place. A fostered node
		// asks anyway: that request promotes it to a regular slot.
		n.Fail()
		return
	}
	n.Conn(to)
}

// Joined commits the connection, hands the Case II adoptees their new
// parent, and starts the directional search of a foster quick-start and
// the periodic refinement.
func (n *Node) Joined(from overlay.NodeID, m overlay.ConnResponse) {
	dist, ok := n.Dist(from)
	if !ok {
		// Foster quick-start: nothing was probed, so the connection
		// exchange's own round trip is the distance.
		dist = n.Measure(from, n.ElapsedMS())
	}
	n.ApplyConnect(from, dist, m.RootPath)
	for _, c := range m.Adopted {
		d, ok := n.Dist(c)
		if !ok {
			d = dist
		}
		n.AdoptChild(c, d, from, m.Token)
	}
	if n.Fostering() {
		// Quick-start done; now find the ideal parent.
		n.fostered = true
		n.Refine(n.Source())
	}
	if n.cfg.RefinePeriodS > 0 {
		n.Tick(n.cfg.RefinePeriodS, 0.1, func() { n.Refine(n.Source()) })
	}
}

// Refused steps the walk down past a saturated or loop-risking node. A
// refinement stops there unless the node holds a foster slot, which it
// must leave eventually. (The source never refuses a foster request: it
// grants the slot beyond its degree.)
func (n *Node) Refused(m overlay.ConnResponse) {
	if n.Refining() && !n.fostered {
		n.Fail()
		return
	}
	n.StepDown(m, true)
}

// Switched ends a refinement: a move leaves the foster slot behind; a
// fostered node that did not move searches again five seconds later (for
// instance when every proper candidate was briefly saturated).
func (n *Node) Switched(moved bool) {
	if moved {
		n.fostered = false // promoted or moved to a proper slot
		n.emit(obs.EvRefineSwitch, obs.Event{Target: int64(n.ParentID()), Value: n.ParentDist()})
		return
	}
	if n.fostered {
		n.Net().AfterArg(5, fosterRetry, n)
	}
}

// fosterRetry is the fostered node's search-again callback (arg: *Node).
func fosterRetry(a any) {
	n := a.(*Node)
	if n.Alive() && n.fostered && n.Connected() && !n.Joining() {
		n.Refine(n.Source())
	}
}

// sortByDist returns ids ordered by ascending measured distance
// (insertion sort: the lists are tiny), breaking ties by id.
func sortByDist(ids []overlay.NodeID, dists overlay.ProbeResult) []overlay.NodeID {
	out := append([]overlay.NodeID(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			dj, _ := dists.Get(out[j])
			dp, _ := dists.Get(out[j-1])
			if dj < dp || (dj == dp && out[j] < out[j-1]) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}
