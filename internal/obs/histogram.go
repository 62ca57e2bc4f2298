package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Default bucket bounds. Durations the protocol produces cluster around
// its 2 s timeouts (joins) and sub-millisecond loopback RTTs (acks), so
// both ladders are log-spaced.
var (
	// DurationBuckets covers join/reconnect durations in seconds.
	DurationBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	// LatencyBucketsMS covers round-trip and ack latencies in milliseconds.
	LatencyBucketsMS = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}
)

// Histogram is a fixed-bucket histogram with atomic counts: Observe is
// lock-free and safe from any goroutine. Bounds are bucket upper limits
// (le semantics: a value lands in the first bucket whose bound is ≥ it);
// values above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
// The bounds slice is copied and sorted defensively; an empty bounds list
// yields a histogram with only the +Inf bucket (count/sum still work).
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
	}
}

// bucketIndex returns the index of the bucket v falls in:
// the first i with v ≤ bounds[i], or len(bounds) for the +Inf bucket.
func (h *Histogram) bucketIndex(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf overflow.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram state. Concurrent observations may land
// between bucket reads — totals are reconciled so Count always equals the
// bucket sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}
