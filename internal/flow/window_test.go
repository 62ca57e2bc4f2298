package flow

import (
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
