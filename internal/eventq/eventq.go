// Package eventq implements the discrete-event scheduler that drives every
// simulation and emulation in this repository.
//
// Time is virtual and measured in seconds (float64). Events scheduled for
// the same instant fire in scheduling order, which — together with seeded
// random streams — makes every run fully deterministic.
package eventq

import (
	"container/heap"
	"fmt"
)

// Event is a callback scheduled to run at a virtual time. There is one
// form: a function plus the argument it is called with, so hot callers
// schedule a static function with a recycled argument record instead of
// allocating a closure per event. A plain func() is scheduled as the
// argument of callFunc (see At).
type event struct {
	at   float64
	seq  uint64
	fn   func(any)
	arg  any
	next *event // free-list link while recycled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a single-threaded discrete-event simulator.
// The zero value is not usable; call New.
type Sim struct {
	now       float64
	seq       uint64
	events    eventHeap
	processed uint64
	stopped   bool

	// free holds fired events for reuse, so a steady-state simulation
	// (every fired event schedules a successor) allocates no event
	// structs after warm-up. Periodic trimming (see trimFree) keeps the
	// list from pinning the high-water mark of a load spike for the rest
	// of the run.
	free    *event
	freeLen int

	// freeSlack overrides DefaultFreeSlack when positive (SetFreeSlack).
	freeSlack int
}

// DefaultFreeSlack is how many recycled events the free list may hold
// beyond the current pending count before trimming releases the excess to
// the GC. A small cushion avoids alloc/free churn when load oscillates;
// anything beyond it is spike residue — which matters after a join storm,
// when the pending count collapses from its burst peak.
const DefaultFreeSlack = 256

// SetFreeSlack tunes the free-list decay cap (n <= 0 restores the
// default). Large-population sessions set a tighter cap than the default
// once their join phase drains, so burst residue is returned to the GC
// instead of being pinned for the steady-state remainder of the run.
func (s *Sim) SetFreeSlack(n int) { s.freeSlack = n }

// trimInterval is how often (in processed events) the run loops check the
// free list, as a power-of-two mask.
const trimInterval = 4096 - 1

// trimFree releases free-list entries beyond the pending count plus a
// slack cushion. Without this, a burst that grows the heap to N pins ~N
// recycled event structs for the rest of the run.
func (s *Sim) trimFree() {
	slack := s.freeSlack
	if slack <= 0 {
		slack = DefaultFreeSlack
	}
	limit := len(s.events) + slack
	for s.freeLen > limit {
		e := s.free
		s.free = e.next
		e.next = nil
		s.freeLen--
	}
}

// FreeLen reports how many recycled events the free list currently holds.
func (s *Sim) FreeLen() int { return s.freeLen }

// alloc takes an event off the free list, or makes one.
func (s *Sim) alloc(at float64, fn func(any), arg any) *event {
	e := s.free
	if e == nil {
		e = &event{}
	} else {
		s.free = e.next
		e.next = nil
		s.freeLen--
	}
	s.seq++
	e.at, e.seq, e.fn, e.arg = at, s.seq, fn, arg
	return e
}

// recycle puts a fired event on the free list. The callback and argument
// are dropped immediately so recycled events never pin their captures.
func (s *Sim) recycle(e *event) {
	e.fn, e.arg = nil, nil
	e.next = s.free
	s.free = e
	s.freeLen++
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
	heap.Push(&s.events, s.alloc(t, fn, arg))
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
	next := heap.Pop(&s.events).(*event)
	s.now = next.at
	s.processed++
	if s.processed&trimInterval == 0 {
		s.trimFree()
	}
	fn, arg := next.fn, next.arg
	s.recycle(next)
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
	s.trimFree()
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
	s.trimFree()
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
		head := s.events[0]
		if head.at > t || (head.at == t && head.seq >= seqBelow) {
			break
		}
		s.fire()
	}
	if s.now < t {
		s.now = t
	}
	s.trimFree()
}

// Drain runs every remaining event regardless of timestamp.
func (s *Sim) Drain() {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		s.fire()
	}
	s.trimFree()
}
