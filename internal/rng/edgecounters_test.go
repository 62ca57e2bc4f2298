package rng

import (
	"math"
	"math/rand"
	"testing"
)

// TestEdgeCountersMatchMap drives the table and a map keyed by the
// directed edge with one random send sequence: both directions of a pair,
// self-edges, the extreme ids, and enough distinct pairs to rehash several
// times. Every Next must return what a map post-increment returns.
func TestEdgeCountersMatchMap(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	ids := []uint32{0, 1, 2, math.MaxInt32 - 1, math.MaxInt32}
	for len(ids) < 300 {
		ids = append(ids, uint32(rnd.Int31()))
	}
	var tab EdgeCounters
	ref := map[[2]uint32]uint64{}
	pairs := map[[2]uint32]bool{}
	sizes := map[int]bool{}
	for i := 0; i < 200000; i++ {
		from, to := ids[rnd.Intn(len(ids))], ids[rnd.Intn(len(ids))]
		switch rnd.Intn(8) {
		case 0:
			to = from
		case 1: // a reply on an edge already used the other way
			from, to = to, from
		}
		want := ref[[2]uint32{from, to}]
		ref[[2]uint32{from, to}] = want + 1
		if got := tab.Next(from, to); got != want {
			t.Fatalf("send %d: Next(%d, %d) = %d, want %d", i, from, to, got, want)
		}
		pairs[[2]uint32{min(from, to), max(from, to)}] = true
		sizes[len(tab.slots)] = true
		if tab.n != len(pairs) {
			t.Fatalf("send %d: %d slots occupied, want %d pairs", i, tab.n, len(pairs))
		}
	}
	if len(sizes) < 8 {
		t.Fatalf("the table took %d sizes; want several doublings", len(sizes))
	}
	if tab.n > len(tab.slots)*3/4 {
		t.Fatalf("%d of %d slots occupied: over the load bound", tab.n, len(tab.slots))
	}
	// One slot per unordered pair is the point: a directed-edge table
	// would hold len(ref) entries.
	if tab.n >= len(ref) {
		t.Fatalf("%d slots for %d directed edges", tab.n, len(ref))
	}
}

// TestEdgeCountersDirectionsAreIndependent pins the slot layout's one
// subtlety: the two directions share a slot and nothing else, and a
// self-edge counts once.
func TestEdgeCountersDirectionsAreIndependent(t *testing.T) {
	var tab EdgeCounters
	for i := uint64(0); i < 3; i++ {
		if got := tab.Next(7, 9); got != i {
			t.Fatalf("7→9 draw %d = %d", i, got)
		}
	}
	if got := tab.Next(9, 7); got != 0 {
		t.Fatalf("first 9→7 draw = %d, want 0", got)
	}
	if got := tab.Next(7, 9); got != 3 {
		t.Fatalf("7→9 after a reply = %d, want 3", got)
	}
	for i := uint64(0); i < 2; i++ {
		if got := tab.Next(0, 0); got != i {
			t.Fatalf("0→0 draw %d = %d", i, got)
		}
	}
	if tab.n != 2 {
		t.Fatalf("%d slots occupied, want 2", tab.n)
	}
}

// TestEdgeCountersFullCounterPanics: a draw index that wrapped would
// repeat draws (and, with both directions at zero, read as an empty slot),
// so the table refuses.
func TestEdgeCountersFullCounterPanics(t *testing.T) {
	for _, dir := range [][2]uint32{{3, 5}, {5, 3}, {4, 4}} {
		var tab EdgeCounters
		tab.Next(dir[0], dir[1])
		for i := range tab.slots {
			if s := &tab.slots[i]; s.fwd|s.rev != 0 {
				if s.fwd != 0 {
					s.fwd = math.MaxUint32 - 1
				} else {
					s.rev = math.MaxUint32 - 1
				}
			}
		}
		if got := tab.Next(dir[0], dir[1]); got != math.MaxUint32-1 {
			t.Fatalf("%v: last draw = %d", dir, got)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: a full counter wrapped instead of panicking", dir)
				}
			}()
			tab.Next(dir[0], dir[1])
		}()
	}
}

// BenchmarkEdgeCounters is Network.Send's counter step at the scale cell's
// size: half a million pairs in a 16.8 MB table, each send a random pair
// in a random direction, so nearly every Next is one cache miss.
func BenchmarkEdgeCounters(b *testing.B) {
	const pairs = 500_000
	rnd := rand.New(rand.NewSource(1))
	from, to := make([]uint32, pairs), make([]uint32, pairs)
	var tab EdgeCounters
	for i := range from {
		from[i], to[i] = uint32(rnd.Intn(20000)), uint32(rnd.Intn(20000))
		tab.Next(from[i], to[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		j := int(mix64(uint64(i)) % pairs)
		if i&1 == 0 {
			sink += tab.Next(from[j], to[j])
		} else {
			sink += tab.Next(to[j], from[j])
		}
	}
	_ = sink
}
