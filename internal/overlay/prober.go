package overlay

// ProbeResult maps each responsive probe target to its measured virtual
// distance. Targets that did not answer before the timeout are absent.
type ProbeResult map[NodeID]float64

// Prober manages concurrent ping rounds for one peer. Each round pings a
// set of targets in parallel, converts the measured round-trip into a
// virtual distance via the peer's metric, and invokes a completion
// callback once every target answered or the round timed out — the "N
// pings S and all children of S" step of the join procedure.
type Prober struct {
	peer     *Peer
	next     int
	sessions map[int]*probeSession

	// free recycles finished sessions (struct, pending map, and result
	// map). The result map is only valid during the round's callback —
	// every caller in-tree copies what it keeps into its own join
	// scratch — so recycling it makes a steady-state Launch allocate
	// nothing.
	free *probeSession

	// freeTO recycles round-timeout records.
	freeTO *probeTimeout

	// drop, set by Trim, stops finished sessions and timeout records
	// from re-entering the free lists: rounds that were in flight when
	// the peer settled would otherwise re-pin their maps for the rest of
	// the run. The next Launch clears it — a reconnecting peer probes in
	// bursts again and recycling pays once more.
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
	if s, ok := pr.sessions[token]; ok && !s.finished {
		pr.finish(token, s)
	}
}

type probeSession struct {
	pending  map[NodeID]float64 // target -> send time (s)
	results  ProbeResult
	done     func(ProbeResult)
	finished bool
	freeLink *probeSession
}

func newProber(p *Peer) *Prober {
	return &Prober{peer: p, sessions: make(map[int]*probeSession)}
}

// session returns a blank probe session, reusing a recycled one when
// available.
func (pr *Prober) session(targets int) *probeSession {
	sess := pr.free
	if sess == nil {
		sess = &probeSession{
			pending: make(map[NodeID]float64, targets),
			results: make(ProbeResult, targets),
		}
	} else {
		pr.free = sess.freeLink
		sess.freeLink = nil
		sess.finished = false
		clear(sess.pending)
		if sess.results == nil {
			// The session was recycled while its previous result map was
			// still being read by a finish callback (see finish).
			sess.results = make(ProbeResult, targets)
		} else {
			clear(sess.results)
		}
	}
	return sess
}

// Launch pings every target in parallel. done fires exactly once — when
// all targets answered, or when timeoutS elapses — with whatever distances
// were measured. Launch with no targets completes asynchronously with an
// empty result to keep caller control flow uniform.
func (pr *Prober) Launch(targets []NodeID, timeoutS float64, done func(ProbeResult)) {
	pr.next++
	pr.drop = false
	token := pr.next
	sess := pr.session(len(targets))
	sess.done = done
	pr.sessions[token] = sess

	now := pr.peer.net.Now()
	for _, t := range targets {
		if t == pr.peer.id {
			continue
		}
		if _, dup := sess.pending[t]; dup {
			continue
		}
		sess.pending[t] = now
		pr.peer.net.Send(pr.peer.id, t, Ping{Token: token})
	}
	if len(sess.pending) == 0 {
		pr.finish(token, sess)
		return
	}
	to := pr.freeTO
	if to == nil {
		to = &probeTimeout{pr: pr}
	} else {
		pr.freeTO = to.next
		to.next = nil
	}
	to.token = token
	pr.peer.net.AfterArg(timeoutS, probeTimeoutFire, to)
}

// handlePong consumes a Pong if it belongs to an active session, returning
// whether it was consumed.
func (pr *Prober) handlePong(from NodeID, m Pong) bool {
	sess, ok := pr.sessions[m.Token]
	if !ok || sess.finished {
		return ok
	}
	sentAt, waiting := sess.pending[from]
	if !waiting {
		return true
	}
	delete(sess.pending, from)
	elapsedMS := (pr.peer.net.Now() - sentAt) * 1000
	sess.results[from] = pr.peer.Measure(from, elapsedMS)
	if len(sess.pending) == 0 {
		pr.finish(m.Token, sess)
	}
	return true
}

func (pr *Prober) finish(token int, sess *probeSession) {
	sess.finished = true
	delete(pr.sessions, token)
	done, results := sess.done, sess.results
	sess.done, sess.results = nil, nil
	if pr.drop {
		// The peer settled (Trim): let the session go to the collector
		// instead of pinning its maps.
		done(results)
		return
	}
	// Detach the result map for the duration of the callback: the
	// session is already on the free list, and a callback that launches
	// a new round would otherwise clear the map it is iterating.
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
// does not pin one session's maps per peer for the rest of the run; the
// next Launch turns recycling back on.
func (pr *Prober) Trim() {
	pr.drop = true
	pr.free = nil
	pr.freeTO = nil
}
