package eventq

import "testing"

func TestRunBeforeExcludesBoundary(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{1, 2, 3, 3, 4} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunBefore(3)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("RunBefore(3) fired %v, want [1 2]", got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock at %v, want 3", s.Now())
	}
	if s.Pending() != 3 {
		t.Fatalf("%d pending, want 3", s.Pending())
	}
	// Scheduling at exactly now must still be legal after the clock moved.
	s.At(3, func() { got = append(got, 3.5) })
}

func TestRunBandFiresSetupBandOnly(t *testing.T) {
	s := New()
	var got []string
	s.At(5, func() { got = append(got, "setup-a") })
	s.At(5, func() { got = append(got, "setup-b") })
	s.At(2, func() { got = append(got, "early") })
	s.SetSeqBase(1 << 40)
	s.At(5, func() { got = append(got, "runtime") })

	s.RunBand(5, 1<<40)
	want := []string{"early", "setup-a", "setup-b"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if s.Pending() != 1 {
		t.Fatalf("%d pending, want the runtime event", s.Pending())
	}
	s.Run(5)
	if got[len(got)-1] != "runtime" {
		t.Fatalf("runtime event did not fire on the inclusive run: %v", got)
	}
}

func TestNextAt(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt reported an event on an empty queue")
	}
	s.At(7, func() {})
	s.At(3, func() {})
	if at, ok := s.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt = %v, %v; want 3, true", at, ok)
	}
}

func TestSetSeqBaseOnlyRaises(t *testing.T) {
	s := New()
	s.SetSeqBase(100)
	s.SetSeqBase(50) // must not lower
	var got []int
	s.At(1, func() { got = append(got, 1) }) // seq ≥ 101
	s.RunBand(1, 100)
	if len(got) != 0 {
		t.Fatal("event below a lowered seq base fired inside the band")
	}
	s.Run(1)
	if len(got) != 1 {
		t.Fatal("event never fired")
	}
}
