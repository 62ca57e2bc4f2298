package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFiresInTimestampOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run(10)
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEqualTimestampsFireInScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { got = append(got, i) })
	}
	s.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v", got)
		}
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(5, func() { fired++ })
	s.Run(3)
	if fired != 1 {
		t.Fatalf("fired %d events before t=3, want 1", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v, want 3", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
	s.Run(10)
	if fired != 2 {
		t.Fatalf("fired %d after second run, want 2", fired)
	}
}

func TestClockAdvancesToUntilOnEmptyQueue(t *testing.T) {
	s := New()
	s.Run(42)
	if s.Now() != 42 {
		t.Fatalf("clock %v, want 42", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at float64
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run(100)
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	s := New()
	fired := false
	s.At(10, func() { s.After(-3, func() { fired = true }) })
	s.Run(100)
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run(20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling before now")
		}
	}()
	s.At(5, func() {})
}

// TestDrainRunsEverything: Run to +Inf fires every event, however late.
func TestDrainRunsEverything(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(1e9, func() { fired++ })
	s.Run(math.Inf(1))
	if fired != 2 {
		t.Fatalf("drain fired %d, want 2", fired)
	}
	if s.Processed() != 2 {
		t.Fatalf("processed %d, want 2", s.Processed())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			s.After(0.5, recurse)
		}
	}
	s.At(0, recurse)
	s.Run(60)
	if depth != 100 {
		t.Fatalf("chained to depth %d, want 100", depth)
	}
}

// Property: any batch of randomly timestamped events fires in sorted order.
func TestPropertyRandomScheduleSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%64) + 1
		times := make([]float64, count)
		var fired []float64
		for i := range times {
			times[i] = rnd.Float64() * 1000
			at := times[i]
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run(2000)
		if len(fired) != count {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocatesNothing pins slot reuse: once the array has
// reached the heap's high-water mark, an AtArg + fire cycle takes the
// slot the previous pop vacated instead of allocating.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	s := New()
	arg := new(int)
	var tick func(any)
	tick = func(a any) { s.AfterArg(1, tick, a) }
	for i := 0; i < 8; i++ {
		s.AtArg(float64(i)/8, tick, arg)
	}
	s.Run(16) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		s.AtArg(s.Now(), func(any) {}, arg)
		s.Run(s.Now() + 8)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AtArg + fire allocated %v objects per cycle, want 0", allocs)
	}
}

// TestFiredEntryIsUnreachable checks a fired entry's callback and
// argument are not reachable from the queue: pop zeroes the slot it
// vacates, so nothing in the array's spare capacity pins them.
func TestFiredEntryIsUnreachable(t *testing.T) {
	s := New()
	for i := 0; i < 40; i++ {
		s.At(float64(i%7), func() {})
		s.AtArg(float64(i%5), func(any) {}, new(int))
	}
	s.Run(3)
	if s.Pending() == 0 || s.FreeLen() == 0 {
		t.Fatalf("pending %d, spare %d: want a partly drained queue", s.Pending(), s.FreeLen())
	}
	spare := s.events[len(s.events):cap(s.events)]
	for i, e := range spare {
		if e.fn != nil || e.arg != nil {
			t.Fatalf("spare slot %d retains a fired callback or argument", i)
		}
	}
	s.Run(math.Inf(1))
	for i, e := range s.events[:cap(s.events)] {
		if e.fn != nil || e.arg != nil {
			t.Fatalf("slot %d of the drained queue retains a callback or argument", i)
		}
	}
}

// TestArrayShrinksAfterBurst pins the shrink rule: a burst that grows the
// array must not pin its high-water mark for the rest of the run, and
// FreeLen — the spare capacity of the array and the lane rings — follows
// the array down.
func TestArrayShrinksAfterBurst(t *testing.T) {
	s := New()
	const burst = 50000
	for i := 0; i < burst; i++ {
		s.At(float64(i), func() {})
	}
	if got := s.Pending() + s.FreeLen(); got < burst {
		t.Fatalf("array holds %d slots with %d pending", got, burst)
	}
	s.Run(burst - 1000.5)
	if p, f := s.Pending(), s.FreeLen(); p != 1000 || p+f > 4*p {
		t.Fatalf("pending %d, spare %d: want 1000 pending in an array at most 4x that", p, f)
	}
	s.Run(burst)
	if got := s.FreeLen(); got > minCap {
		t.Fatalf("%d spare slots after the burst drained, want ≤ %d", got, minCap)
	}

	// Steady state afterwards reuses slots: a self-rescheduling chain
	// never grows the array again.
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.Run(math.Inf(1))
	if got := s.FreeLen(); got > 2*minCap { // the heap array and the chain's lane
		t.Fatalf("%d spare slots in steady state, want ≤ %d", got, 2*minCap)
	}
}

// scripted is an event of the differential test. What it schedules when
// it fires is a pure function of its fields, so the queue under test and
// the reference expand the same script independently.
type scripted struct {
	id  uint64
	gen int
	// period > 0 marks a self-re-arming timer: it schedules itself again
	// period later, timerGens times, as a watchdog or a data tick does.
	period float64
}

type scriptedChild struct {
	delay float64
	ev    scripted
}

func mix(x uint64) uint64 { // splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// scriptedDelays are the fixed delays of the script — more of them than
// the queue has lanes, delay 0 (the current instant) among them.
var scriptedDelays = [...]float64{0, 0.5, 1, 1.5, 0.25, 2.5, 5}

const timerGens = 12

// children returns what an event schedules as it fires. A timer re-arms
// itself with its own period and, one firing in four, also sends a
// one-shot at a delay no other event shares (a message delivery). Any
// other event has up to two successors at fixed delays; chains end at the
// fifth generation.
func (e scripted) children() []scriptedChild {
	if e.period > 0 {
		var out []scriptedChild
		if e.gen < timerGens {
			out = append(out, scriptedChild{e.period, scripted{mix(e.id), e.gen + 1, e.period}})
		}
		if c := mix(e.id ^ 1<<60); c%4 == 0 {
			out = append(out, scriptedChild{float64(c>>11) / (1 << 53) * 3, scripted{c, 5, 0}})
		}
		return out
	}
	if e.gen >= 5 {
		return nil
	}
	var out []scriptedChild
	for k := uint64(0); k < mix(e.id)%3; k++ {
		c := mix(e.id ^ (k+1)<<56)
		out = append(out, scriptedChild{scriptedDelays[c%uint64(len(scriptedDelays))], scripted{c, e.gen + 1, 0}})
	}
	return out
}

// refQueue is the reference: an unordered slice, popped by scanning for
// the smallest (at, seq).
type refQueue struct {
	now     float64
	seq     uint64
	pending []refEvent
	fired   []uint64
}

type refEvent struct {
	at  float64
	seq uint64
	ev  scripted
}

func (r *refQueue) at(t float64, ev scripted) {
	r.seq++
	r.pending = append(r.pending, refEvent{t, r.seq, ev})
}

// run fires events in (at, seq) order while due accepts the earliest.
func (r *refQueue) run(due func(refEvent) bool) {
	for len(r.pending) > 0 {
		m := 0
		for i, e := range r.pending {
			if h := r.pending[m]; e.at < h.at || (e.at == h.at && e.seq < h.seq) {
				m = i
			}
		}
		e := r.pending[m]
		if !due(e) {
			return
		}
		r.pending = append(r.pending[:m], r.pending[m+1:]...)
		r.now = e.at
		r.fired = append(r.fired, e.ev.id)
		for _, c := range e.ev.children() {
			r.at(r.now+c.delay, c.ev)
		}
	}
}

// TestDifferentialAgainstSortedReference drives the queue and the
// reference with one random script — coarse timestamps so many are equal,
// events that schedule further events (also at the current instant) while
// firing, a population of self-re-arming timers at more distinct fixed
// delays than there are lanes mixed with one-shots at delays nothing else
// shares, and interleaved Run/RunBefore/RunBand/run-to-empty with SetSeqBase —
// and requires the same firing order, clock, sequence counter and pending
// count after every step. The lanes are an optimisation the reference
// does not have, so this is their proof of order.
func TestDifferentialAgainstSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		ref := &refQueue{}
		var fired []uint64
		var fire func(any)
		fire = func(a any) {
			ev := a.(scripted)
			fired = append(fired, ev.id)
			for _, c := range ev.children() {
				s.AfterArg(c.delay, fire, c.ev)
			}
		}
		inLanes, inHeap := false, false
		for step := 0; step < 80; step++ {
			n, spread := rnd.Intn(12), 8
			if step%20 == 0 { // a burst, so the heap is several levels deep
				n, spread = 300, 60
			}
			for ; n > 0; n-- {
				at := s.Now() + float64(rnd.Intn(spread))/2
				ev := scripted{id: rnd.Uint64()}
				if rnd.Intn(6) == 0 {
					ev.period = scriptedDelays[1+rnd.Intn(len(scriptedDelays)-1)]
				}
				s.AtArg(at, fire, ev)
				ref.at(at, ev)
			}
			for i := range s.lanes {
				inLanes = inLanes || s.lanes[i].n > 1
			}
			inHeap = inHeap || len(s.events) > 0
			until := s.Now() + float64(rnd.Intn(6))/2
			advance := true
			switch op := rnd.Intn(10); {
			case op < 4:
				s.Run(until)
				ref.run(func(e refEvent) bool { return e.at <= until })
			case op < 6:
				s.RunBefore(until)
				ref.run(func(e refEvent) bool { return e.at < until })
			case op < 8:
				below := ref.seq - uint64(rnd.Intn(4))
				s.RunBand(until, below)
				ref.run(func(e refEvent) bool {
					return e.at < until || (e.at == until && e.seq < below)
				})
			case op < 9:
				base := ref.seq + uint64(rnd.Intn(50))
				s.SetSeqBase(base)
				if ref.seq < base {
					ref.seq = base
				}
				advance = false
			default:
				s.run(math.Inf(1), math.MaxUint64) // everything, clock at the last event
				ref.run(func(refEvent) bool { return true })
				advance = false
			}
			if advance && ref.now < until {
				ref.now = until
			}
			if s.Now() != ref.now || s.Pending() != len(ref.pending) || s.seq != ref.seq {
				t.Fatalf("seed %d step %d: now %v pending %d seq %d, reference %v %d %d",
					seed, step, s.Now(), s.Pending(), s.seq, ref.now, len(ref.pending), ref.seq)
			}
			if len(fired) != len(ref.fired) {
				t.Fatalf("seed %d step %d: fired %d events, reference %d", seed, step, len(fired), len(ref.fired))
			}
			for i := range fired {
				if fired[i] != ref.fired[i] {
					t.Fatalf("seed %d step %d: firing %d is event %x, reference %x", seed, step, i, fired[i], ref.fired[i])
				}
			}
		}
		if len(fired) < 1500 {
			t.Fatalf("seed %d fired only %d events; the script is too thin", seed, len(fired))
		}
		if !inLanes || !inHeap {
			t.Fatalf("seed %d: lanes used %v, heap used %v; the script must exercise both", seed, inLanes, inHeap)
		}
	}
}

// TestAtAllocatesNothingBeyondClosure pins the fold of At/After onto the
// arg-carrying form: carrying the caller's func() as the event argument
// boxes a pointer-shaped value, so with spare slots in the array
// scheduling an already-built closure allocates nothing.
func TestAtAllocatesNothingBeyondClosure(t *testing.T) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	s.At(0, fn)
	s.After(0, fn)
	s.Run(1) // the array now holds two spare slots
	allocs := testing.AllocsPerRun(100, func() {
		s.At(s.Now(), fn)
		s.After(0.5, fn)
		s.Run(s.Now() + 1)
	})
	if allocs != 0 {
		t.Fatalf("At+After allocated %v objects per cycle, want 0", allocs)
	}
	if fired != 2+2*101 {
		t.Fatalf("fired %d callbacks, want %d", fired, 2+2*101)
	}
}

// TestMixedFormsFireInScheduleOrder: At and AtArg are one event form, so
// calls for one instant interleave strictly in schedule order.
func TestMixedFormsFireInScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	note := func(a any) { got = append(got, a.(int)) }
	for i := 0; i < 12; i++ {
		i := i
		switch i % 3 {
		case 0:
			s.At(5, func() { got = append(got, i) })
		case 1:
			s.AtArg(5, note, i)
		default:
			s.After(5, func() { got = append(got, i) })
		}
	}
	s.Run(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("fired order %v, want schedule order", got)
		}
	}
	if len(got) != 12 {
		t.Fatalf("fired %d of 12", len(got))
	}
}
