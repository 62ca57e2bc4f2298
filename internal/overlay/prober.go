package overlay

import "slices"

// Probe is one measured distance: to ID, virtual distance D.
type Probe struct {
	ID NodeID
	D  float64
}

// ProbeResult lists the responsive targets of a probe round in reply
// order, each with its measured virtual distance; targets that did not
// answer before the timeout are absent. A join walk keeps every distance
// it measured in one too (Put). Rounds probe a queried node's children, a
// handful of ids, so a slice searched by id is both smaller and faster
// than a map: the scale cell's join storm holds one per joining peer.
// Every consumer is independent of the order.
type ProbeResult []Probe

// Get returns the distance measured to id.
func (r ProbeResult) Get(id NodeID) (float64, bool) {
	for _, p := range r {
		if p.ID == id {
			return p.D, true
		}
	}
	return 0, false
}

// Put records distance d to id, overwriting an earlier measurement.
func (r *ProbeResult) Put(id NodeID, d float64) {
	for i := range *r {
		if (*r)[i].ID == id {
			(*r)[i].D = d
			return
		}
	}
	*r = append(*r, Probe{ID: id, D: d})
}

// Merge puts every measurement of o into r.
func (r *ProbeResult) Merge(o ProbeResult) {
	*r = slices.Grow(*r, len(o))
	for _, p := range o {
		r.Put(p.ID, p.D)
	}
}

// Closest returns the id among ids with the smallest measured distance,
// ties broken by the lower id, and that distance; None when no id of ids
// was measured.
func (r ProbeResult) Closest(ids []NodeID) (NodeID, float64) {
	best, bd := None, 0.0
	for _, id := range ids {
		d, ok := r.Get(id)
		if !ok {
			continue
		}
		if best == None || d < bd || (d == bd && id < best) {
			best, bd = id, d
		}
	}
	return best, bd
}

// Prober manages concurrent ping rounds for one peer. Each round pings a
// set of targets in parallel, converts the measured round-trip into a
// virtual distance via the peer's metric, and invokes a completion
// callback once every target answered or the round timed out — the "N
// pings S and all children of S" step of the join procedure.
type Prober struct {
	peer *Peer
	next int
	// sessions are the rounds in flight, searched by token: a peer runs
	// one round at a time, plus the odd abandoned one awaiting its
	// timeout.
	sessions []*probeSession

	// free recycles finished sessions with their slices. The result is
	// only valid during the round's callback — every caller in-tree
	// copies what it keeps into its own join scratch — so recycling it
	// makes a steady-state Launch allocate nothing.
	free *probeSession

	// freeTO recycles round-timeout records.
	freeTO *probeTimeout

	// drop, set by Trim, stops finished sessions and timeout records
	// from re-entering the free lists: rounds that were in flight when
	// the peer settled would otherwise re-pin their slices for the rest
	// of the run. The next Launch clears it — a reconnecting peer probes
	// in bursts again and recycling pays once more.
	drop bool
}

// probeTimeout carries one round's timeout through Bus.AfterArg. The
// round token fences a recycled record: tokens are never reused, and a
// finished round is gone from the session table.
type probeTimeout struct {
	pr    *Prober
	token int
	next  *probeTimeout
}

// probeTimeoutFire is the shared timeout callback (arg: *probeTimeout).
func probeTimeoutFire(a any) {
	to := a.(*probeTimeout)
	pr, token := to.pr, to.token
	if !pr.drop {
		to.next = pr.freeTO
		pr.freeTO = to
	}
	if s := pr.session(token); s != nil {
		pr.finish(s)
	}
}

type probeSession struct {
	token    int
	sentAt   float64  // when the round's pings left (s)
	pending  []NodeID // targets yet to answer
	results  ProbeResult
	done     func(ProbeResult)
	freeLink *probeSession
}

func newProber(p *Peer) *Prober {
	return &Prober{peer: p}
}

// session returns the round in flight under token, or nil.
func (pr *Prober) session(token int) *probeSession {
	for _, s := range pr.sessions {
		if s.token == token {
			return s
		}
	}
	return nil
}

// Launch pings every target in parallel. done fires exactly once — when
// all targets answered, or when timeoutS elapses — with whatever distances
// were measured. Launch with no targets completes at once with an empty
// result, to keep caller control flow uniform.
func (pr *Prober) Launch(targets []NodeID, timeoutS float64, done func(ProbeResult)) {
	pr.next++
	pr.drop = false
	sess := pr.free
	if sess == nil {
		sess = &probeSession{}
	} else {
		pr.free = sess.freeLink
		sess.freeLink = nil
	}
	// A round holds at most one entry per target: size both slices once.
	sess.pending = slices.Grow(sess.pending[:0], len(targets))
	sess.results = slices.Grow(sess.results[:0], len(targets))
	sess.token, sess.done = pr.next, done
	sess.sentAt = pr.peer.net.Now()
	pr.sessions = append(pr.sessions, sess)

	for _, t := range targets {
		if t == pr.peer.id || slices.Contains(sess.pending, t) {
			continue
		}
		sess.pending = append(sess.pending, t)
		pr.peer.net.Send(pr.peer.id, t, Ping{Token: sess.token})
	}
	if len(sess.pending) == 0 {
		pr.finish(sess)
		return
	}
	to := pr.freeTO
	if to == nil {
		to = &probeTimeout{pr: pr}
	} else {
		pr.freeTO = to.next
		to.next = nil
	}
	to.token = sess.token
	pr.peer.net.AfterArg(timeoutS, probeTimeoutFire, to)
}

// handlePong consumes a Pong if it belongs to an active session, returning
// whether it was consumed.
func (pr *Prober) handlePong(from NodeID, m Pong) bool {
	sess := pr.session(m.Token)
	if sess == nil {
		return false
	}
	i := slices.Index(sess.pending, from)
	if i < 0 {
		return true
	}
	sess.pending = slices.Delete(sess.pending, i, i+1)
	elapsedMS := (pr.peer.net.Now() - sess.sentAt) * 1000
	sess.results = append(sess.results, Probe{ID: from, D: pr.peer.Measure(from, elapsedMS)})
	if len(sess.pending) == 0 {
		pr.finish(sess)
	}
	return true
}

func (pr *Prober) finish(sess *probeSession) {
	i := slices.Index(pr.sessions, sess)
	pr.sessions = slices.Delete(pr.sessions, i, i+1)
	done, results := sess.done, sess.results
	sess.done, sess.results = nil, nil
	if pr.drop {
		// The peer settled (Trim): let the session go to the collector
		// instead of pinning its slices.
		if len(pr.sessions) == 0 {
			pr.sessions = nil
		}
		done(results)
		return
	}
	// Detach the result for the duration of the callback: the session is
	// already on the free list, and a round the callback launches must
	// not write into the slice being read.
	sess.freeLink = pr.free
	pr.free = sess
	done(results)
	if sess.results == nil {
		sess.results = results
	}
}

// Trim drops the recycled-session free lists and stops in-flight rounds
// from refilling them. Peers call it once their join procedure reaches
// steady state, so a population that probed heavily during a join storm
// does not pin one session's slices per peer for the rest of the run; the
// next Launch turns recycling back on.
func (pr *Prober) Trim() {
	pr.drop = true
	pr.free = nil
	pr.freeTO = nil
	if len(pr.sessions) == 0 {
		pr.sessions = nil
	}
}
