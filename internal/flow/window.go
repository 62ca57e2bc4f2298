package flow

import "sync"

// DefaultWindowBits is the number of recent sequence numbers a Window
// tracks. Reordering beyond this span (minutes of stream at the paper's
// rates) is not observable in a tree overlay.
const DefaultWindowBits = 4096

// DefaultBackfill is how far below the first-seen sequence number a
// Window still accepts entries, absorbing reordering around a connect.
const DefaultBackfill = 64

// Range is an inclusive interval of sequence numbers [Lo, Hi].
type Range struct {
	Lo, Hi int64
}

// Window is a sliding bitmap over recent sequence numbers. It grew out
// of the overlay's duplicate-suppression seqwindow and now also drives
// the ack clock: besides answering "is this sequence new?" it maintains
// the cumulative-ack point (highest seq with no gap below it) and can
// enumerate the missing ranges above it for NACK generation.
//
// It is safe for concurrent use: receive paths Add while ack/NACK timers
// read CumAck and Missing from another goroutine in the live runtime.
type Window struct {
	mu       sync.Mutex
	size     int64 // tracked span in bits, multiple of 64
	backfill int64
	base     int64 // lowest tracked seq
	top      int64 // highest seq marked so far, exclusive
	cum      int64 // cumulative point: every seq <= cum is seen
	bits     []uint64
	begun    bool
}

// NewWindow builds a window tracking size recent sequence numbers
// (rounded up to a multiple of 64; <= 0 means DefaultWindowBits) that
// accepts backfill sequence numbers below the first seq it observes.
func NewWindow(size, backfill int) *Window {
	if size <= 0 {
		size = DefaultWindowBits
	}
	sz := (int64(size) + 63) &^ 63
	bf := int64(backfill)
	if bf < 0 || bf >= sz {
		bf = 0
	}
	return &Window{size: sz, backfill: bf, bits: make([]uint64, sz/64)}
}

// Add marks seq as seen and reports whether it was new. Sequence numbers
// older than the window are treated as duplicates. Abandoning a sequence
// (NACK give-up) is also an Add: marking it seen is exactly what lets
// the cumulative point move past it.
func (w *Window) Add(seq int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.begun {
		w.begun = true
		w.base = seq - w.backfill
		w.top = seq
		w.cum = w.base - 1
	}
	if seq < w.base {
		return false
	}
	if seq >= w.base+w.size {
		// Slide forward so seq is the newest trackable entry.
		newBase := seq - w.size + 1
		if newBase >= w.base+w.size {
			// Jumped past the whole window: nothing tracked survives.
			for i := range w.bits {
				w.bits[i] = 0
			}
		} else {
			for s := w.base; s < newBase; s++ {
				w.clear(s)
			}
		}
		w.base = newBase
		if w.cum < w.base-1 {
			w.cum = w.base - 1
			// Re-chain through bits that were set before the slide forced
			// the cumulative point forward.
			w.advance()
		}
	}
	if w.get(seq) {
		return false
	}
	w.set(seq)
	if seq >= w.top {
		w.top = seq + 1
	}
	if seq == w.cum+1 {
		w.advance()
	}
	return true
}

// advance chains the cumulative point forward over contiguous seen
// bits. Caller holds w.mu.
func (w *Window) advance() {
	for w.cum+1 < w.top && w.get(w.cum+1) {
		w.cum++
	}
}

// CumAck returns the cumulative-ack point — the highest sequence number
// such that every sequence at or below it has been seen (or slid out of
// the window) — and whether any sequence has been observed yet.
func (w *Window) CumAck() (int64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cum, w.begun
}

// Seen reports whether seq has been marked (or is below the window, in
// which case it is treated as seen).
func (w *Window) Seen(seq int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.begun {
		return false
	}
	if seq <= w.cum || seq < w.base {
		return true
	}
	if seq >= w.top {
		return false
	}
	return w.get(seq)
}

// Missing appends to dst the gaps between the cumulative point and the
// highest sequence seen, as inclusive ranges, stopping after max ranges.
// dst is reset and reused, so callers can keep a scratch slice.
func (w *Window) Missing(dst []Range, max int) []Range {
	dst = dst[:0]
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.begun {
		return dst
	}
	for s := w.cum + 1; s < w.top && len(dst) < max; s++ {
		if w.get(s) {
			continue
		}
		lo := s
		for s+1 < w.top && !w.get(s+1) {
			s++
		}
		dst = append(dst, Range{Lo: lo, Hi: s})
	}
	return dst
}

func (w *Window) idx(seq int64) (int, uint64) {
	off := seq % w.size
	if off < 0 {
		off += w.size
	}
	return int(off / 64), 1 << uint(off%64)
}

func (w *Window) get(seq int64) bool {
	i, m := w.idx(seq)
	return w.bits[i]&m != 0
}

func (w *Window) set(seq int64) {
	i, m := w.idx(seq)
	w.bits[i] |= m
}

func (w *Window) clear(seq int64) {
	i, m := w.idx(seq)
	w.bits[i] &^= m
}
