package eventq

import (
	"flag"
	"math"
	"math/rand"
	"testing"
	"time"
)

func nop(any) {}

// laneOf returns the lane keyed by delay d that holds events, or nil.
func laneOf(s *Sim, d float64) *lane {
	for i := range s.lanes {
		if s.laneD[i] == d && s.lanes[i].n > 0 {
			return &s.lanes[i]
		}
	}
	return nil
}

// TestMoreDelaysThanLanes: the first numLanes delays take the lanes, the
// rest go through the heap, and a lane is re-keyed only once it is empty —
// none of which may show in the firing order.
func TestMoreDelaysThanLanes(t *testing.T) {
	s := New()
	var got []int
	note := func(a any) { got = append(got, a.(int)) }
	delays := []float64{6, 5, 4, 3, 2, 1} // scheduled latest-first
	for i, d := range delays {
		s.AfterArg(d, note, i)
	}
	if len(s.events) != len(delays)-numLanes || s.Pending() != len(delays) {
		t.Fatalf("%d of %d events in the heap, want %d", len(s.events), s.Pending(), len(delays)-numLanes)
	}
	if at, ok := s.NextAt(); !ok || at != 1 {
		t.Fatalf("NextAt = %v, %v; want the heap's event at 1", at, ok)
	}
	s.Run(2.5) // fires delays 1 and 2 from the heap; the lanes stay keyed
	s.AfterArg(2, note, 6)
	if len(s.events) != 1 {
		t.Fatal("a delay no lane is keyed by took a busy lane")
	}
	s.Run(3.5) // fires delay 3: its lane is empty now
	s.AfterArg(2, note, 7)
	if laneOf(s, 2) == nil {
		t.Fatal("an empty lane was not re-keyed")
	}
	if at, ok := s.NextAt(); !ok || at != 4 {
		t.Fatalf("NextAt = %v, %v; want the lane head at 4", at, ok)
	}
	s.Run(math.Inf(1))
	want := []int{5, 4, 3, 2, 6, 1, 7, 0} // at 1, 2, 3, 4, 4.5, 5, 5.5, 6
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestContinuousRandomDelays is the shape of the benchmark's queue probe:
// every event re-schedules itself at a delay drawn from a continuum, so no
// two share a lane key and each lane holds one stray event at a time. The
// order must still be (at, seq).
func TestContinuousRandomDelays(t *testing.T) {
	s := New()
	rnd := rand.New(rand.NewSource(1))
	last, fired := 0.0, 0
	var tick func(any)
	tick = func(a any) {
		if s.Now() < last {
			t.Fatalf("event at %v fired after one at %v", s.Now(), last)
		}
		last = s.Now()
		fired++
		s.AfterArg(0.5+rnd.Float64(), tick, a)
	}
	const depth = 500
	for i := 0; i < depth; i++ {
		s.AtArg(rnd.Float64(), tick, nil)
	}
	s.Run(50)
	if s.Pending() != depth || fired < 40*depth {
		t.Fatalf("pending %d, fired %d", s.Pending(), fired)
	}
}

// randomDelayCycle loads s with 10 000 events that each re-schedule
// themselves at a delay drawn from a continuum, through AfterArg (which
// tries the lanes) or through AtArg(now+d) (which never does). Each tick
// reports to placed whether its successor went into the heap.
func randomDelayCycle(s *Sim, lanes bool, placed func(heap bool)) {
	rnd := rand.New(rand.NewSource(1))
	var tick func(any)
	tick = func(a any) {
		before := len(s.events)
		if d := 0.5 + rnd.Float64(); lanes {
			s.AfterArg(d, tick, a)
		} else {
			s.AtArg(s.Now()+d, tick, a)
		}
		if placed != nil {
			placed(len(s.events) > before)
		}
	}
	for i := 0; i < 10000; i++ {
		s.AtArg(rnd.Float64(), tick, nil)
	}
}

// TestRandomDelaysNotSlowerThanHeap: the lanes must not tax a schedule they
// cannot help. Under continuous random delays no two events share a lane
// key, so a lane only ever holds one stray event: the heap must take all
// but a few of the events, and the lanes never more than one event each.
// This is the count half of the property; the wall-clock half is
// TestRandomDelaysTiming, which check.sh runs on its own.
func TestRandomDelaysNotSlowerThanHeap(t *testing.T) {
	s := New()
	var heap, lane, maxQueued int
	randomDelayCycle(s, true, func(toHeap bool) {
		if toHeap {
			heap++
		} else {
			lane++
		}
		queued := 0
		for i := range s.lanes {
			queued += s.lanes[i].n
		}
		maxQueued = max(maxQueued, queued)
	})
	s.Run(12)
	if heap+lane < 100000 {
		t.Fatalf("only %d events fired", heap+lane)
	}
	if lane*1000 > heap+lane {
		t.Fatalf("the lanes took %d of %d random-delay events, want at most 0.1 %%", lane, heap+lane)
	}
	if maxQueued > numLanes {
		t.Fatalf("%d random-delay events queued in the lanes at once, want at most one per lane (%d)", maxQueued, numLanes)
	}
}

// timing enables the wall-clock comparisons, which a loaded machine can
// fail: check.sh runs them on their own, with -args -timing.
var timing = flag.Bool("timing", false, "run the wall-clock comparison tests")

// TestRandomDelaysTiming times the random-delay cycle through AfterArg
// and through AtArg(now+d), best of several rounds each, with a bound
// wide enough for a shared machine — a per-pop scan of every lane cost
// well over it. It runs only with -timing.
func TestRandomDelaysTiming(t *testing.T) {
	if !*timing {
		t.Skip("wall-clock comparison; run with -args -timing")
	}
	cycle := func(lanes bool) time.Duration {
		s := New()
		randomDelayCycle(s, lanes, nil)
		s.Run(2)
		start := time.Now()
		s.Run(12)
		return time.Since(start)
	}
	best := map[bool]time.Duration{}
	for round := 0; round < 5; round++ {
		for _, lanes := range []bool{true, false} {
			if d := cycle(lanes); best[lanes] == 0 || d < best[lanes] {
				best[lanes] = d
			}
		}
	}
	if best[true] > best[false]*13/10 {
		t.Fatalf("random delays through AfterArg %v, through the heap alone %v", best[true], best[false])
	}
}

// TestFiredLaneEntryIsUnreachable: a fired lane slot is zeroed like a heap
// slot, so the ring pins neither the callback nor its argument.
func TestFiredLaneEntryIsUnreachable(t *testing.T) {
	s := New()
	for i := 0; i < 40; i++ {
		s.AfterArg(3, nop, new(int))
		s.Run(s.Now() + 0.01)
	}
	l := laneOf(s, 3)
	if l == nil || l.n != 40 {
		t.Fatal("the timers are not in one lane")
	}
	s.Run(3.105) // fires the eleven scheduled by 0.1
	if l.n == 0 || l.n == 40 {
		t.Fatalf("%d of 40 queued: want a partly drained lane", l.n)
	}
	queued := func(i int) bool { return (i-l.head)&(len(l.buf)-1) < l.n }
	for i, e := range l.buf {
		if !queued(i) && (e.fn != nil || e.arg != nil) {
			t.Fatalf("ring slot %d retains a fired callback or argument", i)
		}
	}
	s.Run(math.Inf(1))
	for i, e := range l.buf {
		if e.fn != nil || e.arg != nil {
			t.Fatalf("slot %d of the drained ring retains a callback or argument", i)
		}
	}
}

// TestLaneShrinksAfterBurst: a lane's ring grows with a burst, halves as it
// drains by the heap array's rule, and FreeLen and Pending count it.
func TestLaneShrinksAfterBurst(t *testing.T) {
	s := New()
	const burst = 50000
	for i := 0; i < burst; i++ {
		s.AfterArg(5, nop, nil)
	}
	l := laneOf(s, 5)
	if l == nil || l.n != burst || len(s.events) != 0 {
		t.Fatal("the burst is not in one lane")
	}
	if s.Pending() != burst || s.FreeLen() != len(l.buf)-burst {
		t.Fatalf("pending %d, spare %d over a ring of %d holding %d", s.Pending(), s.FreeLen(), len(l.buf), burst)
	}
	s.RunBand(5, burst-1000+1) // all at one instant: fire all but the last 1000
	if p, f := s.Pending(), s.FreeLen(); p != 1000 || p+f > 4*p {
		t.Fatalf("pending %d, spare %d: want 1000 pending in a ring at most 4x that", p, f)
	}
	s.Run(math.Inf(1))
	if got := s.FreeLen(); got > minCap {
		t.Fatalf("%d spare slots after the burst drained, want ≤ %d", got, minCap)
	}
	// The ring wrapped many times on the way down; order survived.
	if s.Processed() != burst {
		t.Fatalf("processed %d of %d", s.Processed(), burst)
	}
}

// TestRearmingTimersAllocateNothing: a population of periodic timers in
// steady state pops one ring slot and fills the next, never allocating —
// at several periods, with one more period than lanes so the heap path is
// in the cycle too.
func TestRearmingTimersAllocateNothing(t *testing.T) {
	s := New()
	type timer struct{ period float64 }
	var tick func(any)
	tick = func(a any) { s.AfterArg(a.(*timer).period, tick, a) }
	for p := 1; p <= numLanes+1; p++ {
		for i := 0; i < 50; i++ {
			s.AtArg(float64(i)/50, tick, &timer{float64(p)})
		}
	}
	s.Run(20) // warm up: rings and heap array at their steady size
	before := s.Processed()
	allocs := testing.AllocsPerRun(100, func() { s.Run(s.Now() + 1) })
	if allocs != 0 {
		t.Fatalf("re-arming timers allocated %v objects per simulated second, want 0", allocs)
	}
	if fired := s.Processed() - before; fired < 100*50 {
		t.Fatalf("only %d timers fired", fired)
	}
}
