// Package eventq implements the discrete-event scheduler that drives every
// simulation and emulation in this repository.
//
// Time is virtual and measured in seconds (float64). Events scheduled for
// the same instant fire in scheduling order, which — together with seeded
// random streams — makes every run fully deterministic.
package eventq

import "fmt"

// entry is one scheduled callback. There is one form: a function plus the
// argument it is called with, so hot callers schedule a static function
// with a recycled argument record instead of allocating a closure per
// event. A plain func() is scheduled as the argument of callFunc (see
// At). The ordering key (at, seq) sits in the entry itself, so sifting
// compares heap slots directly and never chases a pointer.
type entry struct {
	at  float64
	seq uint64
	fn  func(any)
	arg any
}

// before reports whether e fires before o: earlier timestamp, then
// scheduling order.
func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// minCap is the capacity below which the heap array is never shrunk.
const minCap = 256

// Sim is a single-threaded discrete-event simulator.
// The zero value is not usable; call New.
type Sim struct {
	now       float64
	seq       uint64
	processed uint64
	stopped   bool

	// events is a 4-ary min-heap of entries by value, ordered by
	// (at, seq): the children of slot i are 4i+1 … 4i+4. Four children
	// halve the depth of a binary heap, and a sift-down step reads its
	// four candidates from adjacent memory. A steady-state simulation
	// (every fired event schedules a successor) reuses the slot the pop
	// vacated, so it allocates nothing; pop halves the array once it is
	// under a quarter full, so a load spike does not pin its high-water
	// mark for the rest of the run.
	events []entry
}

// FreeLen reports the heap array's spare capacity: slots a push can take
// without allocating.
func (s *Sim) FreeLen() int { return cap(s.events) - len(s.events) }

// push inserts e, sifting it up from the new last slot.
func (s *Sim) push(e entry) {
	s.events = append(s.events, e)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes the head entry and returns its fields. The vacated last
// slot is zeroed, so the queue keeps no reference to a fired callback or
// its argument.
func (s *Sim) pop() (at float64, fn func(any), arg any) {
	h := s.events
	at, fn, arg = h[0].at, h[0].fn, h[0].arg
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	if c := cap(h); c > minCap && n < c/4 {
		h = append(make([]entry, 0, c/2), h...)
	}
	s.events = h
	if n == 0 {
		return at, fn, arg
	}
	// Sift last down from the root: move the smallest child up into the
	// hole until last fits.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			if h[c+1].before(&h[m]) {
				m = c + 1
			}
			if h[c+2].before(&h[m]) {
				m = c + 2
			}
			if h[c+3].before(&h[m]) {
				m = c + 3
			}
		} else {
			for j := c + 1; j < n; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return at, fn, arg
}

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now reports the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have fired so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet fired.
func (s *Sim) Pending() int { return len(s.events) }

// callFunc is the event function behind At and After: the argument is the
// caller's func(). A func value is pointer-shaped, so carrying it in the
// event's any allocates nothing.
func callFunc(a any) { a.(func())() }

// At schedules fn to run at absolute virtual time t.
// Scheduling in the past panics: that is always a protocol bug.
func (s *Sim) At(t float64, fn func()) { s.AtArg(t, callFunc, fn) }

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) { s.AfterArg(d, callFunc, fn) }

// AtArg schedules fn(arg) at absolute virtual time t. Passing a static
// function plus a reusable argument record avoids the per-event closure
// allocation a captured func() costs on hot paths (message delivery and
// protocol timeouts schedule millions of events per simulated session).
func (s *Sim) AtArg(t float64, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(entry{at: t, seq: s.seq, fn: fn, arg: arg})
}

// AfterArg schedules fn(arg) d seconds from now.
func (s *Sim) AfterArg(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.AtArg(s.now+d, fn, arg)
}

// Stop aborts a Run in progress after the current event returns.
func (s *Sim) Stop() { s.stopped = true }

// SetSeqBase raises the sequence counter to at least base. The sharded
// engine uses this to separate "setup" events (tick starter, scripted
// scenario actions — scheduled before the run starts) from everything
// scheduled at runtime: with all setup sequence numbers below base, a
// barrier can fire exactly the setup-band events at an instant (RunBand)
// in the same relative order the serial engine would.
func (s *Sim) SetSeqBase(base uint64) {
	if s.seq < base {
		s.seq = base
	}
}

// NextAt reports the timestamp of the earliest pending event, and whether
// one exists.
func (s *Sim) NextAt() (float64, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// fire pops and executes the head event.
func (s *Sim) fire() {
	at, fn, arg := s.pop()
	s.now = at
	s.processed++
	fn(arg)
}

// Run fires events in timestamp order until the queue is empty or the next
// event is later than until. The clock is left at until when it would
// otherwise end earlier.
func (s *Sim) Run(until float64) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at > until {
			break
		}
		s.fire()
	}
	if s.now < until {
		s.now = until
	}
}

// RunBefore fires every event strictly earlier than t and leaves the
// clock at t. It is the epoch step of the sharded engine: events at
// exactly t belong to the next epoch (or to the barrier band, see
// RunBand).
func (s *Sim) RunBefore(t float64) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at >= t {
			break
		}
		s.fire()
	}
	if s.now < t {
		s.now = t
	}
}

// RunBand fires every event strictly earlier than t, plus the events at
// exactly t whose sequence number is below seqBelow (the setup band — see
// SetSeqBase), and leaves the clock at t. Runtime events scheduled at
// exactly t stay queued for the next epoch, which is precisely how the
// serial engine interleaves them: setup events at an instant carry lower
// sequence numbers than anything scheduled while the run is in flight.
func (s *Sim) RunBand(t float64, seqBelow uint64) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		head := &s.events[0]
		if head.at > t || (head.at == t && head.seq >= seqBelow) {
			break
		}
		s.fire()
	}
	if s.now < t {
		s.now = t
	}
}

// Drain runs every remaining event regardless of timestamp.
func (s *Sim) Drain() {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		s.fire()
	}
}
