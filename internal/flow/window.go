package flow

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
// It takes no lock: a window belongs to one peer, and every call comes
// from that peer's serialized execution context (the event loop in the
// simulator, the peer's mailbox goroutine in the live runtime), where the
// receive path and the ack/NACK timers never run at the same time.
type Window struct {
	backfill int64
	base     int64    // lowest tracked seq
	top      int64    // highest seq marked so far, exclusive
	cum      int64    // cumulative point: every seq <= cum is seen
	bits     []uint64 // the tracked span: a power of two ≥ 64 bits
	begun    bool
}

// NewWindow builds a window tracking size recent sequence numbers
// (rounded up to a power of two, at least 64; <= 0 means
// DefaultWindowBits) that accepts backfill sequence numbers below the
// first seq it observes.
func NewWindow(size, backfill int) *Window {
	w := new(Window)
	w.Init(size, backfill)
	return w
}

// Init sets w up in place as NewWindow(size, backfill) would, so a window
// can live inside its owner's struct.
func (w *Window) Init(size, backfill int) {
	if size <= 0 {
		size = DefaultWindowBits
	}
	sz := int64(64)
	for sz < int64(size) {
		sz <<= 1
	}
	bf := int64(backfill)
	if bf < 0 || bf >= sz {
		bf = 0
	}
	*w = Window{backfill: bf, bits: make([]uint64, sz/64)}
}

// Add marks seq as seen and reports whether it was new. Sequence numbers
// older than the window are treated as duplicates. Abandoning a sequence
// (NACK give-up) is also an Add: marking it seen is exactly what lets
// the cumulative point move past it.
func (w *Window) Add(seq int64) bool {
	if !w.begun {
		w.begun = true
		w.base = seq - w.backfill
		w.top = seq
		w.cum = w.base - 1
	}
	if seq < w.base {
		return false
	}
	if size := w.size(); seq >= w.base+size {
		// Slide forward so seq is the newest trackable entry.
		newBase := seq - size + 1
		if newBase >= w.base+size {
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
// bits.
func (w *Window) advance() {
	for w.cum+1 < w.top && w.get(w.cum+1) {
		w.cum++
	}
}

// CumAck returns the cumulative-ack point — the highest sequence number
// such that every sequence at or below it has been seen (or slid out of
// the window) — and whether any sequence has been observed yet.
func (w *Window) CumAck() (int64, bool) {
	return w.cum, w.begun
}

// Seen reports whether seq has been marked (or is below the window, in
// which case it is treated as seen).
func (w *Window) Seen(seq int64) bool {
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

// size returns the tracked span in sequence numbers.
func (w *Window) size() int64 { return int64(len(w.bits)) << 6 }

// idx maps seq to its bitmap word and bit. The span is a power of two, so
// the mask is seq mod span, non-negative for negative seqs too.
func (w *Window) idx(seq int64) (int, uint64) {
	off := seq & (w.size() - 1)
	return int(off >> 6), 1 << uint(off&63)
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
