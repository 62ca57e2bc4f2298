package obs

import (
	"math"
	"sync"
	"testing"
)

// TestHistogramBucketMath pins the le semantics: a value lands in the
// first bucket whose bound is ≥ it, boundary values inclusive.
func TestHistogramBucketMath(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // boundary: le="1" includes 1
		{1.0001, 1}, {10, 1},
		{10.5, 2}, {100, 2},
		{100.5, 3}, {1e9, 3}, // +Inf overflow
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}

	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if want := []int64{3, 2, 2, 2}; len(s.Counts) != 4 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] ||
		s.Counts[2] != want[2] || s.Counts[3] != want[3] {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	wantSum := 0.0
	for _, c := range cases {
		wantSum += c.v
	}
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramUnsortedBoundsAndEmpty(t *testing.T) {
	h := NewHistogram([]float64{100, 1, 10}) // sorted defensively
	h.Observe(5)
	s := h.Snapshot()
	if s.Bounds[0] != 1 || s.Bounds[1] != 10 || s.Bounds[2] != 100 {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Counts[1] != 1 {
		t.Fatalf("5 should land in le=10: %v", s.Counts)
	}

	empty := NewHistogram(nil)
	empty.Observe(7)
	es := empty.Snapshot()
	if es.Count != 1 || es.Counts[0] != 1 || es.Sum != 7 {
		t.Fatalf("bound-less histogram broken: %+v", es)
	}
}

// TestHistogramConcurrent verifies totals reconcile under parallel
// observation (run with -race).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	wantSum := float64(workers) * per * 2 // mean of 0..4 is 2
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}
