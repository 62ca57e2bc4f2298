package rng

import (
	"fmt"
	"math/bits"
)

// EdgeCounters holds the draw indices of the keyed RNG: for every pair of
// endpoints that ever exchanged a message, how many draws each direction
// has made. It is one open-addressed table of 8-byte slots at ≤75% load,
// one slot per unordered pair:
//
//	lo:21 | hi:21 | fwd:11 | rev:11
//
// where fwd counts the draws lo→hi and rev those hi→lo. Pairs, not
// directed edges, because overlay traffic is request and reply: a Pong, an
// InfoResponse or an ack finds its counter in the slot the request touched
// one one-way delay earlier, and a session has about half as many pairs as
// directed edges. Nothing else lives in the slot: at the scale cell's
// ~half a million pairs the table is 717 445 × 8 B = 5.7 MB.
//
// A key's home slot is the high word of mix64(key) × len (multiply-shift),
// and probing is linear with wrap-around, so the length need not be a
// power of two: a full table grows by half, not by double, and its length
// stays within 4/3 and 2 times the pairs it holds.
//
// Most pairs are first contacts of a join that never draw again, so 11
// bits per direction hold nearly all of them. A pair the slot cannot hold
// moves to a second table of 16-byte slots {key: lo<<32|hi, fwd, rev}
// with full 32-bit counts: a pair whose larger id is 2²¹ or more goes
// there at once, and a pair whose count is about to reach 2047 goes there
// with its counts. Its packed slot keeps the key with both counts at 2047,
// which no pair in place can hold, so a moved pair needs no deletion and
// no tombstone.
//
// Counters only grow and entries are never deleted, which is exactly the
// keyed-RNG contract (draw indices must never repeat or rewind). A slot is
// empty iff it is zero — Next claims a slot and counts its first draw in
// one step — so the pair (0, 0) needs no sentinel and the zero table is
// ready to use. Not safe for concurrent use; callers lock or own the
// table.
type EdgeCounters struct {
	slots []uint64
	n     int // occupied slots: distinct pairs with both ids below 2²¹
	wide  wideCounters
}

// The packed slot's fields.
const (
	idBits    = 21
	countBits = 11
	keyShift  = 2 * countBits
	countMax  = 1<<countBits - 1
	// moved is the count field of a pair that lives in the wide table.
	moved = countMax<<countBits | countMax
)

// edgeCountersMinSize is the table size on first insert.
const edgeCountersMinSize = 64

// full reports whether one more key would take a table of size slots
// holding n keys past 3/4 load.
func full(n, size int) bool { return 4*(n+1) > 3*size }

// grownSize is the size a full table of size slots grows to.
func grownSize(size int) int { return max(size+size/2, edgeCountersMinSize) }

// home returns key's first probe slot in a table of size slots.
func home(key uint64, size int) int {
	hi, _ := bits.Mul64(mix64(key), uint64(size))
	return int(hi)
}

// Next returns the number of draws already made on the directed edge
// from→to and advances its counter — the first call returns 0, the second
// 1, and so on, independently per direction. A counter that would pass
// MaxUint32 panics: wrapping would repeat draw indices.
func (t *EdgeCounters) Next(from, to uint32) uint64 {
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi >= 1<<idBits {
		return t.wide.next(from, to)
	}
	if full(t.n, len(t.slots)) {
		t.grow()
	}
	key := uint64(lo)<<idBits | uint64(hi)
	shift := uint(countBits) // fwd
	if from > to {
		shift = 0 // rev
	}
	for i := home(key, len(t.slots)); ; i++ {
		if i == len(t.slots) {
			i = 0
		}
		s := &t.slots[i]
		if *s == 0 {
			*s = key<<keyShift | 1<<shift
			t.n++
			return 0
		}
		if *s>>keyShift != key {
			continue
		}
		if *s&moved == moved {
			return t.wide.next(from, to)
		}
		d := *s >> shift & countMax
		if d+1 == countMax {
			// This draw would fill the count: the pair moves, and the
			// wide table makes the draw.
			t.move(s)
			return t.wide.next(from, to)
		}
		*s += 1 << shift
		return d
	}
}

// move copies the pair in packed slot s, with its counts, to the wide
// table and marks s as moved.
func (t *EdgeCounters) move(s *uint64) {
	key := *s >> keyShift
	w := t.wide.slot(key>>idBits<<32 | key&(1<<idBits-1))
	w.fwd, w.rev = uint32(*s>>countBits&countMax), uint32(*s&countMax)
	*s |= moved
}

// grow rehashes into a table half as large again.
func (t *EdgeCounters) grow() {
	old := t.slots
	t.slots = make([]uint64, grownSize(len(old)))
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := home(s>>keyShift, len(t.slots))
		for t.slots[i] != 0 {
			if i++; i == len(t.slots) {
				i = 0
			}
		}
		t.slots[i] = s
	}
}

// wideCounters holds the pairs EdgeCounters' packed slot cannot: 16-byte
// slots with 32-bit counts, keyed lo<<32|hi, empty iff both counts are
// zero.
type wideCounters struct {
	slots []edgeSlot
	n     int
}

type edgeSlot struct {
	key      uint64
	fwd, rev uint32
}

// next is EdgeCounters.Next for a pair that lives here.
func (t *wideCounters) next(from, to uint32) uint64 {
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	s := t.slot(uint64(lo)<<32 | uint64(hi))
	c := &s.fwd
	if from > to {
		c = &s.rev
	}
	d := *c
	if d == ^uint32(0) {
		panic(fmt.Sprintf("rng: draw counter of edge %d→%d is full", from, to))
	}
	*c = d + 1
	return uint64(d)
}

// slot returns key's slot, claiming an empty one for a new key; the
// caller makes a count non-zero before the next call.
func (t *wideCounters) slot(key uint64) *edgeSlot {
	if full(t.n, len(t.slots)) {
		t.grow()
	}
	for i := home(key, len(t.slots)); ; i++ {
		if i == len(t.slots) {
			i = 0
		}
		s := &t.slots[i]
		if s.fwd|s.rev == 0 {
			s.key = key
			t.n++
			return s
		}
		if s.key == key {
			return s
		}
	}
}

// grow rehashes into a table half as large again.
func (t *wideCounters) grow() {
	old := t.slots
	t.slots = make([]edgeSlot, grownSize(len(old)))
	for _, s := range old {
		if s.fwd|s.rev == 0 {
			continue
		}
		i := home(s.key, len(t.slots))
		for t.slots[i].fwd|t.slots[i].rev != 0 {
			if i++; i == len(t.slots) {
				i = 0
			}
		}
		t.slots[i] = s
	}
}
