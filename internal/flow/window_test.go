package flow

import (
	"math"
	"testing"
	"testing/quick"
)

func newTestWindow() *Window { return NewWindow(DefaultWindowBits, DefaultBackfill) }

func TestWindowBasics(t *testing.T) {
	w := newTestWindow()
	if !w.Add(5) {
		t.Fatal("first seq not new")
	}
	if w.Add(5) {
		t.Fatal("duplicate counted as new")
	}
	if !w.Add(6) || !w.Add(4) {
		t.Fatal("nearby fresh seqs rejected")
	}
	if w.Add(4) || w.Add(6) {
		t.Fatal("duplicates after reorder counted")
	}
}

func TestWindowOldSeqIsDuplicate(t *testing.T) {
	w := newTestWindow()
	w.Add(1000)
	// A small backfill below the first-seen seq is accepted (reordering
	// around a connect)...
	if !w.Add(1000 - DefaultBackfill + 1) {
		t.Fatal("in-backfill seq rejected")
	}
	// ...but anything older is a duplicate.
	if w.Add(1000 - DefaultBackfill - 1) {
		t.Fatal("seq below the backfill window counted as new")
	}
}

func TestWindowSlides(t *testing.T) {
	w := newTestWindow()
	w.Add(0)
	// Jump far beyond the window.
	if !w.Add(DefaultWindowBits * 3) {
		t.Fatal("far-future seq rejected")
	}
	// Everything at or below the old window is now "old".
	if w.Add(1) {
		t.Fatal("pre-slide seq counted as new after slide")
	}
	// Fresh seqs near the new position still work.
	if !w.Add(DefaultWindowBits*3 - 10) {
		t.Fatal("in-window seq rejected after slide")
	}
}

func TestWindowDense(t *testing.T) {
	w := newTestWindow()
	for i := int64(0); i < 3*DefaultWindowBits; i++ {
		if !w.Add(i) {
			t.Fatalf("sequential seq %d rejected", i)
		}
	}
	for i := int64(2 * DefaultWindowBits); i < 3*DefaultWindowBits; i++ {
		if w.Add(i) {
			t.Fatalf("recent duplicate %d accepted", i)
		}
	}
	if cum, ok := w.CumAck(); !ok || cum != 3*DefaultWindowBits-1 {
		t.Fatalf("cum=%d after dense stream, want %d", cum, 3*DefaultWindowBits-1)
	}
}

// Property: a monotone stream with occasional duplicates counts each
// distinct in-window seq exactly once.
func TestPropertyWindowExactlyOnce(t *testing.T) {
	f := func(deltas []uint8) bool {
		w := newTestWindow()
		seq := int64(0)
		news := 0
		seen := map[int64]bool{}
		for _, d := range deltas {
			seq += int64(d % 8) // small steps: stay inside the window
			isNew := w.Add(seq)
			if isNew == seen[seq] {
				return false
			}
			seen[seq] = true
			if isNew {
				news++
			}
		}
		return news == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The ack clock: the cumulative point stalls at a gap and resumes the
// moment the gap fills — including chains of buffered seqs beyond it.
func TestWindowCumAckStallResume(t *testing.T) {
	w := NewWindow(256, 0)
	w.Add(0)
	w.Add(1)
	if cum, _ := w.CumAck(); cum != 1 {
		t.Fatalf("cum=%d, want 1", cum)
	}
	// Gap at 2: 3..10 arrive but the cumulative point must not move.
	for s := int64(3); s <= 10; s++ {
		w.Add(s)
	}
	if cum, _ := w.CumAck(); cum != 1 {
		t.Fatalf("cum=%d during stall, want 1", cum)
	}
	// Filling the gap releases the whole buffered run at once.
	w.Add(2)
	if cum, _ := w.CumAck(); cum != 10 {
		t.Fatalf("cum=%d after resume, want 10", cum)
	}
}

func TestWindowMissingRanges(t *testing.T) {
	w := NewWindow(256, 0)
	for _, s := range []int64{0, 1, 4, 5, 9, 12} {
		w.Add(s)
	}
	got := w.Missing(nil, 16)
	want := []Range{{2, 3}, {6, 8}, {10, 11}}
	if len(got) != len(want) {
		t.Fatalf("missing=%v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("missing=%v, want %v", got, want)
		}
	}
	// The max cap truncates from the front.
	if got := w.Missing(nil, 2); len(got) != 2 || got[1] != (Range{6, 8}) {
		t.Fatalf("capped missing=%v", got)
	}
}

// Gap at the window head: the very first expected seq (cum+1 == head of
// the window) is missing. The NACK generator must report it rather than
// silently skipping to the first seen seq.
func TestWindowMissingGapAtHead(t *testing.T) {
	w := NewWindow(256, 4)
	// First observed seq is 10; backfill 4 means the window accepts 6..9
	// and the cumulative point starts at 5.
	w.Add(10)
	if cum, _ := w.CumAck(); cum != 5 {
		t.Fatalf("cum=%d, want 5", cum)
	}
	got := w.Missing(nil, 16)
	if len(got) != 1 || got[0] != (Range{6, 9}) {
		t.Fatalf("missing=%v, want [{6 9}]", got)
	}
	// Give-up on the head gap via Add advances the cumulative point.
	for s := int64(6); s <= 9; s++ {
		w.Add(s)
	}
	if cum, _ := w.CumAck(); cum != 10 {
		t.Fatalf("cum=%d after head fill, want 10", cum)
	}
}

// Sequence numbers around the uint32 boundary: wire seqs travel as
// uint32 (see wire.Frame.Seq) but chunk seqs are int64. A stream
// crossing 2^32 must keep exact-once and cum-ack semantics — the window
// must not alias 2^32 with 0.
func TestWindowUint32Wraparound(t *testing.T) {
	w := NewWindow(256, 0)
	const edge = int64(1) << 32
	for s := edge - 5; s <= edge+5; s++ {
		if !w.Add(s) {
			t.Fatalf("seq %d near uint32 edge rejected", s)
		}
	}
	for s := edge - 5; s <= edge+5; s++ {
		if w.Add(s) {
			t.Fatalf("duplicate %d near uint32 edge accepted", s)
		}
	}
	if cum, _ := w.CumAck(); cum != edge+5 {
		t.Fatalf("cum=%d, want %d", cum, edge+5)
	}
	// A gap straddling the boundary is reported exactly.
	w2 := NewWindow(256, 0)
	w2.Add(edge - 2)
	w2.Add(edge + 2)
	got := w2.Missing(nil, 4)
	if len(got) != 1 || got[0] != (Range{edge - 1, edge + 1}) {
		t.Fatalf("missing=%v, want [{%d %d}]", got, edge-1, edge+1)
	}
}

func TestWindowSeen(t *testing.T) {
	w := NewWindow(256, 0)
	if w.Seen(3) {
		t.Fatal("Seen before any Add")
	}
	w.Add(0)
	w.Add(4)
	if !w.Seen(0) || !w.Seen(4) {
		t.Fatal("added seqs not seen")
	}
	if w.Seen(2) || w.Seen(5) {
		t.Fatal("unseen seqs reported seen")
	}
	if !w.Seen(-10) {
		t.Fatal("below-window seq not treated as seen")
	}
}

// Receive path Adds interleaved with the ack/NACK timers' reads — the
// order the live runtime produces on one peer's mailbox goroutine, which
// serializes them. The cumulative point never moves backwards while gaps
// are open and reaches the end once they are filled.
func TestWindowConcurrentAckAdvance(t *testing.T) {
	w := NewWindow(4096, 0)
	const n = 20000
	var scratch []Range
	var last int64 = -1
	for s := int64(0); s < n; s++ {
		if s%7 != 3 { // leave gaps for the reader to chew on
			w.Add(s)
		}
		if s%10 != 0 {
			continue
		}
		cum, ok := w.CumAck()
		if ok && cum < last {
			t.Fatalf("cumulative ack moved backwards: %d after %d", cum, last)
		}
		if ok {
			last = cum
		}
		scratch = w.Missing(scratch, 8)
		w.Seen(s / 10)
	}
	// Fill the gaps; cum must reach the end.
	for s := int64(3); s < n; s += 7 {
		w.Add(s)
	}
	if cum, _ := w.CumAck(); cum != n-1 {
		t.Fatalf("cum=%d after filling gaps, want %d", cum, n-1)
	}
}

// FuzzWindow turns its input into a sequence of Adds — near the head,
// far jumps ahead, backfill below the first sequence, repeats — on a
// small window, and checks every step against a map of the added
// sequences and the rules of window.go's doc comments: the window tracks
// the size most recent sequences and backfill more below the first one;
// Add reports a tracked sequence new exactly once; the cumulative point
// is the highest sequence with every tracked one at or below it added,
// and never falls; Missing lists exactly the sequences between it and
// the highest added that were not added.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 0, 3, 0, 1, 0, 5, 3, 0, 2, 1})
	f.Add([]byte{1, 7, 255, 250, 1, 40, 1, 64, 0, 9, 2, 3, 3, 1, 1, 255, 0, 0})
	f.Add([]byte{2, 255, 128, 0, 2, 1, 2, 200, 0, 15, 1, 31, 3, 7, 0, 7, 1, 32, 2, 9})
	f.Fuzz(func(t *testing.T, in []byte) {
		s := fuzzScript(in)
		size := int64(64) << (s.next() % 3)
		backfill := int64(s.next()) % size
		first := int64(int16(uint16(s.next())<<8 | uint16(s.next())))
		w := NewWindow(int(size), int(backfill))
		added := map[int64]bool{}
		var history []int64
		high, cum := first, int64(math.MinInt64)
		for step := 0; step < 512 && len(s) > 0; step++ {
			op, arg := s.next(), int64(s.next())
			seq := first
			switch {
			case len(history) == 0:
			case op%4 == 0: // near the head
				seq = high + arg%16 - 8
			case op%4 == 1: // a jump ahead, up to eight window spans
				seq = high + arg*size/32 + arg%3 - 1
			case op%4 == 2: // backfill below the first sequence
				seq = first - arg%(backfill+4)
			default: // a repeat
				seq = history[int(arg)%len(history)]
			}
			history = append(history, seq)
			high = max(high, seq)
			base := max(first-backfill, high-size+1) // lowest tracked
			want := seq >= base && !added[seq]
			if got := w.Add(seq); got != want {
				t.Fatalf("step %d: Add(%d) = %v, want %v (tracking [%d, %d])", step, seq, got, want, base, high)
			}
			if want {
				added[seq] = true
			}

			c, ok := w.CumAck()
			if !ok || c < cum {
				t.Fatalf("step %d: CumAck = %d, %v after %d", step, c, ok, cum)
			}
			cum = c
			for q := base; q <= cum; q++ {
				if !added[q] {
					t.Fatalf("step %d: CumAck %d passes %d, never added", step, cum, q)
				}
			}
			if cum+1 <= high && added[cum+1] {
				t.Fatalf("step %d: CumAck %d stops below added %d", step, cum, cum+1)
			}

			next := cum + 1 // the lowest sequence a range may still cover
			for _, r := range w.Missing(nil, math.MaxInt) {
				if r.Lo < next || r.Hi < r.Lo || r.Hi > high {
					t.Fatalf("step %d: Missing range %+v outside (%d, %d] or out of order", step, r, cum, high)
				}
				for q := next; q <= r.Hi; q++ {
					if added[q] != (q < r.Lo) {
						t.Fatalf("step %d: Missing range %+v disagrees at %d (added %v)", step, r, q, added[q])
					}
				}
				next = r.Hi + 1
			}
			for q := next; q <= high; q++ {
				if !added[q] {
					t.Fatalf("step %d: Missing leaves out %d", step, q)
				}
			}
		}
	})
}
