package eventq

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(float64(j%97), func() {})
		}
		s.Run(100)
	}
}

func BenchmarkSelfRescheduling(b *testing.B) {
	s := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		s.After(1, tick)
	}
	s.At(0, tick)
	b.ResetTimer()
	s.Run(float64(b.N))
	if n < b.N {
		b.Fatalf("ticked %d < %d", n, b.N)
	}
}

// BenchmarkEventQ is the steady-state cycle the simulations spend their
// time in: every fired event schedules a successor, so the heap reuses
// the slot the pop vacated and the cycle runs allocation-free. With one
// pending event it measures the fixed cost of a push and a pop.
func BenchmarkEventQ(b *testing.B) {
	s := New()
	var tick func()
	tick = func() { s.After(1, tick) }
	s.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(float64(b.N))
}

// The same cycle with the heap held at the depth the benchmark workloads
// reach, where sifting costs cache misses: about 1 600 pending events in
// the steady stream, about 27 000 in the scale cell's join storm.
func BenchmarkEventQDepth1600(b *testing.B)  { benchEventQAtDepth(b, 1600) }
func BenchmarkEventQDepth27000(b *testing.B) { benchEventQAtDepth(b, 27000) }

// uniformDelay returns an xorshift source of delays uniform in [0.5, 1.5).
func uniformDelay() func() float64 {
	x := uint64(1)
	return func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return 0.5 + float64(x>>11)/(1<<53)
	}
}

func benchEventQAtDepth(b *testing.B, depth int) {
	s := New()
	delay := uniformDelay()
	var tick func(any)
	tick = func(a any) { s.AfterArg(delay(), tick, a) }
	for i := 0; i < depth; i++ {
		s.AtArg(delay(), tick, nil)
	}
	s.Run(2)
	target := s.Processed() + uint64(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for t := s.Now() + 1; s.Processed() < target; t++ {
		s.Run(t)
	}
}

// BenchmarkEventQTimers20000 is the scale cell's mix: 20 000 watchdogs
// re-arming every 5 s — a third of that cell's events are such fixed-delay
// timers — over message deliveries, scheduled at an absolute time as
// Network.Send does, that keep the heap about 10 000 deep. The timers ride
// a lane, so their share of the cycle costs no sift; the depth benchmarks
// above are all random-delay and measure the heap path alone.
func BenchmarkEventQTimers20000(b *testing.B) {
	s := New()
	delay := uniformDelay()
	var deliver, watchdog func(any)
	deliver = func(a any) { s.AtArg(s.Now()+delay(), deliver, a) }
	watchdog = func(a any) { s.AfterArg(5, watchdog, a) }
	for i := 0; i < 10000; i++ {
		s.AtArg(delay(), deliver, nil)
	}
	for i := 0; i < 20000; i++ {
		s.AtArg(5*delay(), watchdog, nil)
	}
	s.Run(8) // every watchdog has re-armed: the lane holds all of them
	target := s.Processed() + uint64(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for t := s.Now() + 1; s.Processed() < target; t++ {
		s.Run(t)
	}
}
