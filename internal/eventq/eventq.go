// Package eventq implements the discrete-event scheduler that drives every
// simulation and emulation in this repository.
//
// Time is virtual and measured in seconds (float64). Events scheduled for
// the same instant fire in scheduling order, which — together with seeded
// random streams — makes every run fully deterministic.
package eventq

import (
	"fmt"
	"math"
)

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

// minCap is the capacity below which the heap array and a lane's ring are
// never shrunk.
const minCap = 256

// numLanes is how many distinct relative delays can bypass the heap at
// once. The busy ones are few (the starvation watchdog, the join and probe
// timeouts, the data tick); 4 measured the same as 8.
const numLanes = 4

// lane is a FIFO of the events AfterArg scheduled with one relative delay.
// The clock never decreases and float addition is monotone, so now+d is
// non-decreasing over successive calls with the same d while seq strictly
// increases: appending keeps the ring in (at, seq) order with no sifting,
// and the lane's earliest event is always its head.
type lane struct {
	buf  []entry // ring; len(buf) is zero or a power of two
	head int     // index of the oldest entry
	n    int     // entries queued
}

// first returns the lane's earliest entry; the lane must hold one.
func (l *lane) first() *entry { return &l.buf[l.head] }

// resize moves the queued entries, oldest first, into a ring of c slots.
func (l *lane) resize(c int) {
	buf := make([]entry, c)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// Sim is a single-threaded discrete-event simulator.
// The zero value is not usable; call New.
type Sim struct {
	now       float64
	seq       uint64
	processed uint64

	// events is a 4-ary min-heap of entries by value, ordered by
	// (at, seq): the children of slot i are 4i+1 … 4i+4. Four children
	// halve the depth of a binary heap, and a sift-down step reads its
	// four candidates from adjacent memory. A steady-state simulation
	// (every fired event schedules a successor) reuses the slot the pop
	// vacated, so it allocates nothing; pop halves the array once it is
	// under a quarter full, so a load spike does not pin its high-water
	// mark for the rest of the run.
	events []entry

	// lanes hold the events scheduled by AfterArg with a fixed relative
	// delay — periodic ticks, watchdogs, timeouts — so they never enter
	// the heap; laneD[i] is the delay lane i is keyed by. AfterArg appends
	// to the lane whose delay matches, re-keys a lane only while it is
	// empty, and otherwise falls back to the heap, so which lane (if any)
	// an event lands in affects cost and never order: the next event is
	// always the (at, seq) minimum of the heap top and the earliest lane
	// head. laneMin caches which lane holds that head (-1: all empty); it
	// is recomputed only when a lane's head changes, never per pop.
	laneD   [numLanes]float64
	lanes   [numLanes]lane
	laneMin int
}

// FreeLen reports the queue's spare capacity — slots of the heap array
// and of the lane rings that a push can take without allocating.
func (s *Sim) FreeLen() int {
	free := cap(s.events) - len(s.events)
	for i := range s.lanes {
		free += len(s.lanes[i].buf) - s.lanes[i].n
	}
	return free
}

// pushLane appends e to lane i.
func (s *Sim) pushLane(i int, e entry) {
	l := &s.lanes[i]
	if l.n == len(l.buf) {
		l.resize(max(2*len(l.buf), 8))
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
	// A lane that had no head has one now, and it may be the earliest
	// (on a tie it is not: e carries the newest seq).
	if m := s.laneMin; l.n == 1 && (m < 0 || e.at < s.lanes[m].first().at) {
		s.laneMin = i
	}
}

// popLane removes the head of lane i and returns its callback. The
// vacated slot is zeroed like the heap's, and the ring halves by the
// heap array's rule.
func (s *Sim) popLane(i int) (fn func(any), arg any) {
	l := &s.lanes[i]
	e := &l.buf[l.head]
	fn, arg = e.fn, e.arg
	*e = entry{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if c := len(l.buf); c > minCap && l.n < c/4 {
		l.resize(c / 2)
	}
	m := -1
	for j := range s.lanes {
		if c := &s.lanes[j]; c.n > 0 && (m < 0 || c.first().before(s.lanes[m].first())) {
			m = j
		}
	}
	s.laneMin = m
	return fn, arg
}

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

// pop removes the heap's head entry and returns its callback. The vacated
// last slot is zeroed, so the queue keeps no reference to a fired callback
// or its argument.
func (s *Sim) pop() (fn func(any), arg any) {
	h := s.events
	fn, arg = h[0].fn, h[0].arg
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	if c := cap(h); c > minCap && n < c/4 {
		h = append(make([]entry, 0, c/2), h...)
	}
	s.events = h
	if n == 0 {
		return fn, arg
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
	return fn, arg
}

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{laneMin: -1}
}

// Now reports the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have fired so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet fired.
func (s *Sim) Pending() int {
	n := len(s.events)
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}

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

// AfterArg schedules fn(arg) d seconds from now. The event joins the lane
// keyed by d, or takes over an empty lane, and only goes through the heap
// when every lane is busy with another delay.
func (s *Sim) AfterArg(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.seq++
	e := entry{at: s.now + d, seq: s.seq, fn: fn, arg: arg}
	empty := -1
	for i := range s.laneD {
		if s.laneD[i] == d {
			s.pushLane(i, e)
			return
		}
		if empty < 0 && s.lanes[i].n == 0 {
			empty = i
		}
	}
	if empty < 0 {
		s.push(e)
		return
	}
	s.laneD[empty] = d
	s.pushLane(empty, e)
}

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

// next returns the earliest pending event and where it sits: the lane's
// index, or -1 for the heap top. It returns nil on an empty queue.
func (s *Sim) next() (e *entry, li int) {
	li = s.laneMin
	if li >= 0 {
		e = s.lanes[li].first()
	}
	if len(s.events) > 0 && (e == nil || s.events[0].before(e)) {
		return &s.events[0], -1
	}
	return e, li
}

// NextAt reports the timestamp of the earliest pending event, and whether
// one exists.
func (s *Sim) NextAt() (float64, bool) {
	if e, _ := s.next(); e != nil {
		return e.at, true
	}
	return 0, false
}

// run fires events in (at, seq) order while the earliest is before
// (t, seqBelow): strictly earlier than t, or at exactly t with a sequence
// number below seqBelow.
func (s *Sim) run(t float64, seqBelow uint64) {
	for {
		e, li := s.next()
		if e == nil || e.at > t || (e.at == t && e.seq >= seqBelow) {
			break
		}
		s.now = e.at
		s.processed++
		var fn func(any)
		var arg any
		if li < 0 {
			fn, arg = s.pop()
		} else {
			fn, arg = s.popLane(li)
		}
		fn(arg)
	}
}

// Run fires events in timestamp order until the queue is empty or the next
// event is later than until. The clock is left at until when it would
// otherwise end earlier.
func (s *Sim) Run(until float64) {
	s.run(until, math.MaxUint64)
	if s.now < until {
		s.now = until
	}
}

// RunBefore fires every event strictly earlier than t and leaves the
// clock at t. It is the epoch step of the sharded engine: events at
// exactly t belong to the next epoch (or to the barrier band, see
// RunBand).
func (s *Sim) RunBefore(t float64) { s.RunBand(t, 0) }

// RunBand fires every event strictly earlier than t, plus the events at
// exactly t whose sequence number is below seqBelow (the setup band — see
// SetSeqBase), and leaves the clock at t. Runtime events scheduled at
// exactly t stay queued for the next epoch, which is precisely how the
// serial engine interleaves them: setup events at an instant carry lower
// sequence numbers than anything scheduled while the run is in flight.
func (s *Sim) RunBand(t float64, seqBelow uint64) {
	s.run(t, seqBelow)
	if s.now < t {
		s.now = t
	}
}
