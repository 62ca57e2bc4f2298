package rng

import "fmt"

// EdgeCounters holds the draw indices of the keyed RNG: for every pair of
// endpoints that ever exchanged a message, how many draws each direction
// has made. It is one open-addressed table of 16-byte slots at ≤75% load,
//
//	{key: lo<<32|hi, fwd: draws lo→hi, rev: draws hi→lo}
//
// keyed by the unordered pair. Pairs, not directed edges, because overlay
// traffic is request and reply: a Pong, an InfoResponse or an ack finds
// its counter in the slot the request touched one one-way delay earlier,
// and a session has about half as many pairs as directed edges. Nothing
// else lives in the slot: a base delay or a path loss would double it, and
// at the scale cell's ~half a million pairs that is the difference between
// 16.8 and 33.6 MB.
//
// Counters only grow and entries are never deleted, which is exactly the
// keyed-RNG contract (draw indices must never repeat or rewind). A slot is
// empty iff both counts are zero — Next claims a slot and counts its first
// draw in one step — so key 0, the pair (0, 0), needs no sentinel and the
// zero table is ready to use. Not safe for concurrent use; callers lock or
// own the table.
type EdgeCounters struct {
	slots []edgeSlot
	n     int // occupied slots: distinct unordered pairs seen
}

type edgeSlot struct {
	key      uint64
	fwd, rev uint32
}

// edgeCountersMinSize is the table size on first insert (a power of two).
const edgeCountersMinSize = 64

// Next returns the number of draws already made on the directed edge
// from→to and advances its counter — the first call returns 0, the second
// 1, and so on, independently per direction. A counter that would pass
// MaxUint32 panics: wrapping would repeat draw indices.
func (t *EdgeCounters) Next(from, to uint32) uint64 {
	if t.n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(lo)<<32 | uint64(hi)
	mask := uint64(len(t.slots) - 1)
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.fwd|s.rev == 0 {
			s.key = key
			t.n++
		} else if s.key != key {
			continue
		}
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
}

// grow rehashes into a table of twice the size.
func (t *EdgeCounters) grow() {
	old := t.slots
	t.slots = make([]edgeSlot, max(2*len(old), edgeCountersMinSize))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.fwd|s.rev == 0 {
			continue
		}
		i := mix64(s.key) & mask
		for t.slots[i].fwd|t.slots[i].rev != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
