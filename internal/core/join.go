package core

import (
	"fmt"
	"slices"

	"vdm/internal/obs"
	"vdm/internal/overlay"
)

// purpose distinguishes why the join state machine is running: the initial
// join, reconnection after a parent departure, or a refinement shadow
// join.
type purpose int

const (
	purposeJoin purpose = iota
	purposeReconnect
	purposeRefine
)

func (p purpose) String() string {
	switch p {
	case purposeReconnect:
		return "reconnect"
	case purposeRefine:
		return "refine"
	default:
		return "join"
	}
}

// hintDetail renders the grandparent hint carried by an orphan event.
func hintDetail(hint overlay.NodeID) string {
	if hint == overlay.None {
		return "no-hint"
	}
	return fmt.Sprintf("hint:%d", hint)
}

type stage int

const (
	stageInfo stage = iota
	stageProbe
	stageConn
)

// joinState is the per-attempt state of the iterative join procedure.
type joinState struct {
	purpose  purpose
	stage    stage
	token    int
	target   overlay.NodeID
	sentAt   float64
	dTarget  float64
	children []overlay.ChildInfo
	dists    overlay.ProbeResult
	visited  []overlay.NodeID // nodes queried this attempt, each once
	attempts int
	adopt    []overlay.NodeID
	// foster marks the quick-start attachment to the source; on
	// acceptance the directional search runs as an immediate
	// refinement.
	foster bool
	// startedAt is when this attempt began, for the join_done trace
	// event's duration.
	startedAt float64

	// Scratch storage reused across iterations of one attempt and across
	// recycled attempts (see newJoinState): probe target ids, and the
	// Case II/III partitions built by decide. None of these escape — the
	// prober copies its targets and sortByDist copies the adopt list.
	probeIDs []overlay.NodeID
	case3buf []overlay.NodeID
	case2buf []overlay.NodeID
}

// joinTimer carries one join timeout (info or conn stage) through
// Bus.AfterArg. Records are free-listed on the node, so the thousands of
// timeouts a join storm schedules reuse a handful of structs instead of
// allocating a closure each.
type joinTimer struct {
	n     *Node
	js    *joinState
	tok   int
	stage stage
	next  *joinTimer
}

// joinTimerFire is the shared timeout callback (arg: *joinTimer). The
// token fences off stale timers: tokens are node-monotonic and never
// reused, so a recycled joinState pointer cannot satisfy a stale record's
// check.
func joinTimerFire(a any) {
	t := a.(*joinTimer)
	n, js, tok, st := t.n, t.js, t.tok, t.stage
	t.js = nil
	// Recycle only while a join is in flight: a settled node would
	// otherwise re-pin every straggler record (stage timeouts outlive
	// the stages they guard) for the rest of the run.
	if n.join != nil {
		t.next = n.timerFree
		n.timerFree = t
	}
	if n.join != js || js.token != tok || js.stage != st {
		return
	}
	joinTimeoutExpired(n, js, st)
}

// armTimeout schedules the stage timeout for the current attempt.
func (n *Node) armTimeout(js *joinState, d float64) {
	t := n.timerFree
	if t == nil {
		t = &joinTimer{n: n}
	} else {
		n.timerFree = t.next
		t.next = nil
	}
	t.js = js
	t.tok = js.token
	t.stage = js.stage
	n.Net().AfterArg(d, joinTimerFire, t)
}

// joinTimeoutExpired is the body of a fired stage timeout (the guard
// already passed).
func joinTimeoutExpired(n *Node, js *joinState, st stage) {
	switch st {
	case stageInfo:
		n.onTargetUnusable(js)
	case stageConn:
		if js.purpose == purposeRefine {
			n.EndSwitch()
			n.endJoin(js)
			n.fosterRetry()
			return
		}
		n.restart(js)
	}
}

// releaseJoinScratch drops the recycled join attempt, timer records, and
// probe sessions once the node has settled: a population that joined in
// one storm would otherwise pin a full set of join scratch per peer for
// the rest of the run. The next join (churn reconnect, refinement) simply
// reallocates.
func (n *Node) releaseJoinScratch() {
	if n.join != nil {
		return
	}
	n.joinFree = nil
	n.timerFree = nil
	n.Prober().Trim()
}

// newJoinState returns a blank attempt state, reusing the previous
// attempt's allocations when possible. A node runs at most one join
// procedure at a time, so a one-slot free list suffices; stale closures
// from a recycled attempt are fenced off by the monotonic token, which
// every timeout and probe continuation checks before touching state.
func (n *Node) newJoinState(p purpose, attempts int) *joinState {
	js := n.joinFree
	if js == nil {
		js = &joinState{}
	} else {
		n.joinFree = nil
		*js = joinState{
			children: js.children[:0],
			visited:  js.visited[:0],
			dists:    js.dists[:0],
			probeIDs: js.probeIDs[:0],
			case3buf: js.case3buf[:0],
			case2buf: js.case2buf[:0],
		}
	}
	js.purpose = p
	js.attempts = attempts
	js.startedAt = n.Now()
	return js
}

// endJoin clears the in-flight procedure and recycles its state for the
// node's next attempt. Callers must copy out any field they still need.
func (n *Node) endJoin(js *joinState) {
	n.join = nil
	js.adopt = nil // referenced by the sent ConnRequest; never reuse
	n.joinFree = js
}

// Joining reports whether a join/reconnect/refine procedure is in flight.
func (n *Node) Joining() bool { return n.join != nil }

func (n *Node) begin(p purpose, target overlay.NodeID) {
	n.beginWith(p, target, 0)
}

func (n *Node) beginWith(p purpose, target overlay.NodeID, attempts int) {
	js := n.newJoinState(p, attempts)
	n.join = js
	if attempts == 0 {
		n.emit(obs.EvJoinStart, obs.Event{Target: int64(target), Detail: p.String()})
	}
	n.sendInfo(js, target)
}

// sendInfo queries target for its children — one iteration of the
// dissertation's "Contact(S)".
func (n *Node) sendInfo(js *joinState, target overlay.NodeID) {
	js.stage = stageInfo
	js.target = target
	if !slices.Contains(js.visited, target) {
		js.visited = append(js.visited, target)
	}
	js.sentAt = n.Now()
	n.token++
	js.token = n.token
	n.emit(obs.EvJoinStep, obs.Event{Target: int64(target), Step: len(js.visited), Detail: js.purpose.String()})
	n.Net().Send(n.ID(), target, overlay.InfoRequest{Token: js.token, JoinID: n.curJoin})

	n.armTimeout(js, n.InfoTimeoutS)
}

// onTargetUnusable handles a dead or disconnected query target: an orphan
// whose grandparent also departed falls back to the source; everything
// else restarts.
func (n *Node) onTargetUnusable(js *joinState) {
	n.emit(obs.EvJoinTimeout, obs.Event{Target: int64(js.target), Step: len(js.visited), Detail: js.purpose.String()})
	switch {
	case js.purpose == purposeRefine:
		n.endJoin(js)
		n.fosterRetry()
	case js.purpose == purposeReconnect && js.target != n.Source():
		n.sendInfo(js, n.Source())
	default:
		n.restart(js)
	}
}

func (n *Node) onInfoResponse(from overlay.NodeID, m overlay.InfoResponse) {
	js := n.join
	if js == nil || js.stage != stageInfo || js.token != m.Token || js.target != from {
		return
	}
	if !m.Connected && from != n.Source() {
		n.onTargetUnusable(js)
		return
	}
	js.dTarget = n.Measure(from, (n.Now()-js.sentAt)*1000)
	js.dists.Put(from, js.dTarget)

	js.children = js.children[:0]
	ids := js.probeIDs[:0]
	for _, ci := range m.Children {
		if ci.ID == n.ID() {
			continue
		}
		js.children = append(js.children, ci)
		ids = append(ids, ci.ID)
	}
	js.probeIDs = ids
	if len(ids) == 0 {
		n.decide(js, nil)
		return
	}
	js.stage = stageProbe
	tok := js.token
	n.Prober().Launch(ids, overlay.ProbeTimeoutS, func(res overlay.ProbeResult) {
		if n.join == js && js.stage == stageProbe && js.token == tok {
			js.dists.Merge(res)
			n.decide(js, res)
		}
	})
}

// decide runs the directionality test over the probed children of the
// current target and advances the state machine: descend on Case III,
// splice on Case II, attach on Case I.
func (n *Node) decide(js *joinState, res overlay.ProbeResult) {
	// Every probed candidate doubles as repair-neighbor material for the
	// reliable data plane (no-op unless flow is enabled): the join walk
	// is the one moment a peer holds measured distances to non-parents.
	for _, p := range res {
		n.OfferRepairCandidate(p.ID, p.D)
	}
	case3, case2 := js.case3buf[:0], js.case2buf[:0]
	for _, ci := range js.children {
		d, ok := res.Get(ci.ID)
		if !ok {
			continue // child did not answer: treat as departed
		}
		switch Classify(js.dTarget, ci.Dist, d, n.cfg.Gamma) {
		case CaseIII:
			if !slices.Contains(js.visited, ci.ID) {
				case3 = append(case3, ci.ID)
			}
		case CaseII:
			case2 = append(case2, ci.ID)
		}
	}
	js.case3buf, js.case2buf = case3, case2

	if len(case3) > 0 {
		// "Select closest of CaseIII, continue from closest one."
		next, _ := res.Closest(case3)
		n.emit(obs.EvJoinDecide, obs.Event{Target: int64(next), Case: "III", Step: len(case3), Value: js.dTarget})
		n.sendInfo(js, next)
		return
	}
	if len(case2) > 0 && js.purpose != purposeRefine {
		// "N is between S and D(1..n): connect as long as N allows."
		adopt := sortByDist(case2, res)
		if free := n.FreeDegree(); len(adopt) > free {
			adopt = adopt[:free]
		}
		if len(adopt) > 0 {
			n.emit(obs.EvJoinDecide, obs.Event{Target: int64(js.target), Case: "II", Step: len(adopt), Value: js.dTarget})
			n.connect(js, js.target, overlay.ConnSplice, adopt)
			return
		}
	}
	// Case I: no directional child — attach to the queried node itself.
	n.emit(obs.EvJoinDecide, obs.Event{Target: int64(js.target), Case: "I", Value: js.dTarget})
	n.connect(js, js.target, overlay.ConnChild, nil)
}

// connect issues the connection request, or ends a refinement that found
// the current parent already optimal.
func (n *Node) connect(js *joinState, to overlay.NodeID, kind overlay.ConnKind, adopt []overlay.NodeID) {
	if js.purpose == purposeRefine {
		if to == n.ParentID() && !n.fostered {
			n.endJoin(js)
			return
		}
		// A fostered node sends a regular request even to its current
		// (foster) parent: that is the promotion to a real slot.
		n.BeginSwitch()
	}
	js.stage = stageConn
	js.target = to
	js.adopt = adopt
	js.sentAt = n.Now()
	n.token++
	js.token = n.token
	n.emit(obs.EvJoinConnect, obs.Event{Target: int64(to), Case: connKindName(kind, js), Step: len(adopt)})
	n.Net().Send(n.ID(), to, overlay.ConnRequest{
		Token:  js.token,
		Kind:   kind,
		Dist:   n.distTo(js, to),
		Adopt:  adopt,
		Foster: js.foster && js.purpose == purposeJoin,
		JoinID: n.curJoin,
	})

	n.armTimeout(js, overlay.ConnTimeoutS)
}

func (n *Node) distTo(js *joinState, to overlay.NodeID) float64 {
	if d, ok := js.dists.Get(to); ok {
		return d
	}
	return js.dTarget
}

// connDist is the distance recorded at connection time: the probed value
// when available, otherwise (foster quick-start) the round-trip of the
// connection exchange itself.
func (n *Node) connDist(js *joinState, from overlay.NodeID) float64 {
	if d, ok := js.dists.Get(from); ok {
		return d
	}
	if js.foster {
		return n.Measure(from, (n.Now()-js.sentAt)*1000)
	}
	return js.dTarget
}

func (n *Node) onConnResponse(from overlay.NodeID, m overlay.ConnResponse) {
	js := n.join
	if js == nil || js.stage != stageConn || js.token != m.Token || js.target != from {
		return
	}
	if m.Accepted {
		dist := n.connDist(js, from)
		if js.purpose == purposeRefine {
			n.ApplySwitch(from, dist, m.RootPath)
			n.EndSwitch()
			n.endJoin(js)
			n.fostered = false // promoted or moved to a proper slot
			n.emit(obs.EvRefineSwitch, obs.Event{Target: int64(from), Value: dist})
			n.releaseJoinScratch()
			return
		}
		n.ApplyConnect(from, dist, m.RootPath)
		n.emit(obs.EvJoinDone, obs.Event{
			Target: int64(from),
			Step:   len(js.visited),
			Value:  n.Now() - js.startedAt,
			Detail: js.purpose.String(),
		})
		for _, c := range m.Adopted {
			d, ok := js.dists.Get(c)
			if !ok {
				d = dist
			}
			n.AdoptChild(c, d, from, js.token)
		}
		foster := js.foster
		n.endJoin(js)
		if foster {
			// Quick-start done; now find the ideal parent.
			n.fostered = true
			n.begin(purposeRefine, n.Source())
		}
		n.maybeScheduleRefine()
		// A foster quick-start started a refinement above; the guard in
		// releaseJoinScratch keeps its scratch alive in that case.
		n.releaseJoinScratch()
		return
	}

	// Rejected (degree-saturated or loop-risk): fall back to the closest
	// unvisited child of the rejecting node, descending a level.
	if js.purpose == purposeRefine {
		n.EndSwitch()
		if !n.fostered {
			n.endJoin(js)
			return
		}
		// A fostered node must leave its beyond-degree slot eventually:
		// keep searching past the saturated candidate instead of
		// aborting the refinement.
	}
	if js.foster {
		// The source refused even a foster slot: run the regular
		// directional join.
		n.endJoin(js)
		n.begin(purposeJoin, n.Source())
		return
	}
	cands := js.probeIDs[:0]
	for _, ci := range m.Children {
		if ci.ID != n.ID() && !slices.Contains(js.visited, ci.ID) {
			cands = append(cands, ci.ID)
		}
	}
	js.probeIDs = cands
	if len(cands) == 0 {
		n.restart(js)
		return
	}
	if allMeasured(cands, js.dists) {
		best, _ := js.dists.Closest(cands)
		n.sendInfo(js, best)
		return
	}
	js.stage = stageProbe
	n.token++
	js.token = n.token
	tok := js.token
	n.Prober().Launch(cands, overlay.ProbeTimeoutS, func(res overlay.ProbeResult) {
		if n.join != js || js.stage != stageProbe || js.token != tok {
			return
		}
		js.dists.Merge(res)
		best, _ := js.dists.Closest(cands)
		if best == overlay.None {
			n.restart(js)
			return
		}
		n.sendInfo(js, best)
	})
}

// restart begins the whole join over from the source under the shared
// restart policy (overlay.Peer.RestartJoin).
func (n *Node) restart(js *joinState) {
	attempts := js.attempts + 1
	p, target := js.purpose, js.target
	n.endJoin(js)
	n.emit(obs.EvJoinRestart, obs.Event{Target: int64(target), Step: attempts, Detail: p.String()})
	if p == purposeRefine {
		n.fosterRetry()
		return
	}
	n.RestartJoin(attempts, func() bool { return n.join == nil }, func(a int) {
		n.beginWith(p, n.Source(), a)
	})
}

// connKindName names a connection request for the trace stream.
func connKindName(kind overlay.ConnKind, js *joinState) string {
	switch {
	case js.foster && js.purpose == purposeJoin:
		return "foster"
	case kind == overlay.ConnSplice:
		return "splice"
	default:
		return "child"
	}
}

func allMeasured(ids []overlay.NodeID, dists overlay.ProbeResult) bool {
	for _, id := range ids {
		if _, ok := dists.Get(id); !ok {
			return false
		}
	}
	return true
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
