package eventq

import (
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

func TestStopAbortsRun(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++; s.Stop() })
	s.At(2, func() { fired++ })
	s.Run(10)
	if fired != 1 {
		t.Fatalf("fired %d, want 1 (stopped)", fired)
	}
}

func TestDrainRunsEverything(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(1e9, func() { fired++ })
	s.Drain()
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

// TestEventFreeListReuse pins the free-list behavior: once the heap's
// high-water mark is reached, a schedule/fire cycle recycles event
// structs instead of allocating.
func TestEventFreeListReuse(t *testing.T) {
	s := New()
	var tick func()
	tick = func() { s.After(1, tick) }
	s.At(0, tick)
	s.Run(16) // warm up the free list
	allocs := testing.AllocsPerRun(100, func() {
		s.Run(s.Now() + 8)
	})
	if allocs != 0 {
		t.Fatalf("steady-state run allocated %v objects per cycle, want 0", allocs)
	}
}

// TestFreeListDropsClosure checks a recycled event pins neither the fired
// callback nor its argument — which, for At, is the caller's closure.
func TestFreeListDropsClosure(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.AtArg(1, func(any) {}, new(int))
	s.Run(2)
	if s.freeLen != 2 {
		t.Fatalf("free list holds %d events, want both fired events", s.freeLen)
	}
	for e := s.free; e != nil; e = e.next {
		if e.fn != nil || e.arg != nil {
			t.Fatal("recycled event retains its callback or argument")
		}
	}
}

// TestAtAllocatesNothingBeyondClosure pins the fold of At/After onto the
// arg-carrying form: carrying the caller's func() as the event argument
// boxes a pointer-shaped value, so with a warm free list scheduling an
// already-built closure allocates nothing.
func TestAtAllocatesNothingBeyondClosure(t *testing.T) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	s.At(0, fn)
	s.After(0, fn)
	s.Run(1) // two events on the free list
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
