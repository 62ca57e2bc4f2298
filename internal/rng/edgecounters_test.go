package rng

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// pairs counts the distinct unordered pairs the table holds: a moved pair
// has a slot in both tables.
func (t *EdgeCounters) pairs() int {
	n := t.n + t.wide.n
	for _, s := range t.slots {
		if s != 0 && s&moved == moved {
			n--
		}
	}
	return n
}

// refCounters is the reference the table must match: a map keyed by the
// directed edge, post-incremented.
type refCounters map[[2]uint32]uint64

func (r refCounters) next(from, to uint32) uint64 {
	d := r[[2]uint32{from, to}]
	r[[2]uint32{from, to}] = d + 1
	return d
}

// TestEdgeCountersMatchMap drives the table and the reference with one
// random send sequence: both directions of a pair, self-edges, ids on both
// sides of the packed slot's 2²¹ limit up to the extremes, a few hot pairs
// that pass 2047 draws and move, and enough distinct pairs to rehash both
// tables several times. Every Next must return what the reference
// returns.
func TestEdgeCountersMatchMap(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	ids := []uint32{0, 1, 2, 1<<idBits - 1, 1 << idBits, math.MaxInt32 - 1, math.MaxInt32}
	for len(ids) < 300 {
		if len(ids)%2 == 0 {
			ids = append(ids, uint32(rnd.Intn(1<<idBits)))
		} else {
			ids = append(ids, uint32(rnd.Int31()))
		}
	}
	hot := [][2]uint32{{3, 4}, {0, 1<<idBits - 1}, {5, 5}, {1 << idBits, 6}}
	var tab EdgeCounters
	ref := refCounters{}
	pairs := map[[2]uint32]bool{}
	sizes := map[[2]int]bool{}
	for i := 0; i < 300000; i++ {
		from, to := ids[rnd.Intn(len(ids))], ids[rnd.Intn(len(ids))]
		switch rnd.Intn(8) {
		case 0:
			to = from
		case 1: // a reply on an edge already used the other way
			from, to = to, from
		case 2:
			h := hot[rnd.Intn(len(hot))]
			from, to = h[0], h[1]
			if rnd.Intn(2) == 0 {
				from, to = to, from
			}
		}
		want := ref.next(from, to)
		if got := tab.Next(from, to); got != want {
			t.Fatalf("send %d: Next(%d, %d) = %d, want %d", i, from, to, got, want)
		}
		pairs[[2]uint32{min(from, to), max(from, to)}] = true
		sizes[[2]int{len(tab.slots), len(tab.wide.slots)}] = true
		if i%1000 == 0 && tab.pairs() != len(pairs) {
			t.Fatalf("send %d: the tables hold %d pairs, want %d", i, tab.pairs(), len(pairs))
		}
	}
	if tab.pairs() != len(pairs) {
		t.Fatalf("the tables hold %d pairs, want %d", tab.pairs(), len(pairs))
	}
	if len(sizes) < 8 {
		t.Fatalf("the tables took %d sizes; want several doublings", len(sizes))
	}
	if tab.n > len(tab.slots)*3/4 || tab.wide.n > len(tab.wide.slots)*3/4 {
		t.Fatalf("%d of %d packed and %d of %d wide slots occupied: over the load bound",
			tab.n, len(tab.slots), tab.wide.n, len(tab.wide.slots))
	}
	for _, h := range hot[:3] {
		if ref[h] < countMax && ref[[2]uint32{h[1], h[0]}] < countMax {
			t.Fatalf("hot pair %v drew %d and %d times: it never moved", h, ref[h], ref[[2]uint32{h[1], h[0]}])
		}
	}
	// One slot per unordered pair is the point: a directed-edge table
	// would hold len(ref) entries.
	if tab.pairs() >= len(ref) {
		t.Fatalf("%d slots for %d directed edges", tab.pairs(), len(ref))
	}
}

// TestEdgeCountersGrowByHalf: both tables grow by half when an insert
// would pass 3/4 load, so past the first size each one's length stays
// between 4/3 and 2 times the pairs it holds.
func TestEdgeCountersGrowByHalf(t *testing.T) {
	for _, base := range []uint32{0, 1 << idBits} { // packed, wide
		var tab EdgeCounters
		size := func() (int, int) {
			if base == 0 {
				return len(tab.slots), tab.n
			}
			return len(tab.wide.slots), tab.wide.n
		}
		prev, growths := 0, 0
		for k := uint32(0); k < 100_000; k++ {
			tab.Next(base+k, base+k+1)
			l, n := size()
			if l != prev {
				if prev != 0 && l != prev+prev/2 {
					t.Fatalf("base %d: grew %d → %d slots, want %d", base, prev, l, prev+prev/2)
				}
				prev = l
				growths++
			}
			if 3*l < 4*n || (l > edgeCountersMinSize && l > 2*n) {
				t.Fatalf("base %d: %d slots for %d pairs, want between 4/3 and 2 times", base, l, n)
			}
		}
		if growths < 10 {
			t.Fatalf("base %d: %d sizes; the test is not exercising growth", base, growths)
		}
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
	if tab.n != 2 || tab.wide.n != 0 {
		t.Fatalf("%d packed and %d wide slots occupied, want 2 and 0", tab.n, tab.wide.n)
	}
	if want := uint64(7)<<(idBits+keyShift) | 9<<keyShift | 4<<countBits | 1; !slices.Contains(tab.slots, want) {
		t.Fatalf("no slot reads lo=7 hi=9 fwd=4 rev=1 (%#x)", want)
	}
}

// TestEdgeCountersIDLimit: ids 2²¹−1 and 2²¹ straddle the packed slot's
// id field. A pair of the first stays in place; any pair touching the
// second lives in the wide table from its first draw.
func TestEdgeCountersIDLimit(t *testing.T) {
	const top, over = 1<<idBits - 1, 1 << idBits
	var tab EdgeCounters
	ref := refCounters{}
	for _, e := range [][2]uint32{{top, 0}, {0, top}, {top, top}, {over, 0}, {0, over}, {over, top}, {top, over}, {over, over}, {top, 0}, {over, top}} {
		if got, want := tab.Next(e[0], e[1]), ref.next(e[0], e[1]); got != want {
			t.Fatalf("Next(%d, %d) = %d, want %d", e[0], e[1], got, want)
		}
	}
	if tab.n != 2 || tab.wide.n != 3 {
		t.Fatalf("%d packed and %d wide pairs, want 2 ({0, 2²¹−1}, {2²¹−1, 2²¹−1}) and 3", tab.n, tab.wide.n)
	}
}

// TestEdgeCountersCountLimit: the draw that takes a count from 2046 to
// 2047 moves the pair to the wide table with both counts, in either
// direction and on a self-edge, and every later draw on either direction
// continues from there.
func TestEdgeCountersCountLimit(t *testing.T) {
	for _, e := range [][2]uint32{{3, 5}, {5, 3}, {4, 4}} {
		var tab EdgeCounters
		ref := refCounters{}
		step := func(from, to uint32) {
			t.Helper()
			if got, want := tab.Next(from, to), ref.next(from, to); got != want {
				t.Fatalf("%v: Next(%d, %d) = %d, want %d", e, from, to, got, want)
			}
		}
		step(e[1], e[0]) // the other direction holds a draw
		for ref[e] < countMax-1 {
			step(e[0], e[1])
		}
		if tab.wide.n != 0 {
			t.Fatalf("%v: moved at %d draws", e, ref[e])
		}
		step(e[0], e[1]) // 2046 → 2047
		if tab.wide.n != 1 || tab.n != 1 || tab.pairs() != 1 {
			t.Fatalf("%v: %d packed and %d wide slots after the 2047th draw, want 1 and 1", e, tab.n, tab.wide.n)
		}
		for range 3 {
			step(e[0], e[1])
			step(e[1], e[0])
		}
	}
}

// TestEdgeCountersFullCounterPanics: a draw index that wrapped would
// repeat draws (and, with both directions at zero, read as an empty slot),
// so the wide table refuses. A moved pair and a pair with a large id both
// reach it.
func TestEdgeCountersFullCounterPanics(t *testing.T) {
	for _, dir := range [][2]uint32{{3, 5}, {5, 3}, {4, 4}, {1 << idBits, 3}, {3, 1 << idBits}} {
		var tab EdgeCounters
		for range countMax {
			tab.Next(dir[0], dir[1])
		}
		if tab.wide.n != 1 {
			t.Fatalf("%v: %d wide slots, want the pair moved", dir, tab.wide.n)
		}
		for i := range tab.wide.slots {
			if s := &tab.wide.slots[i]; s.fwd|s.rev != 0 {
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

// cellPairs is the scale cell's pair mix: 472 432 distinct pairs of 20 000
// peers, 73 % holding one draw per direction and the rest a few more.
func cellPairs(tab *EdgeCounters) {
	const peers, pairs = 20_000, 472_432
	for k := range pairs {
		a := uint32(k % peers)
		b := (a + 1 + uint32(k/peers)*37) % peers // distinct: offsets < peers/2
		draws := 1
		if k%100 >= 73 {
			draws = 2 + k%5
		}
		for range draws {
			tab.Next(a, b)
			tab.Next(b, a)
		}
	}
}

// TestEdgeCountersCellFootprint: the scale cell's pairs fit in 6 MB of
// live heap, one 8-byte slot per pair at the table's 717 445 slots.
func TestEdgeCountersCellFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a half-million-pair table")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := new(EdgeCounters)
	cellPairs(tab)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tab)
	if used := int64(after.HeapAlloc) - int64(before.HeapAlloc); used > 6_000_000 {
		t.Fatalf("the cell's pairs hold %.2f MB of live heap, want ≤ 6 MB", float64(used)/1e6)
	}
}

// BenchmarkEdgeCounters is Network.Send's counter step at the scale cell's
// size: half a million pairs in a 5.7 MB table, each send a random pair
// in a random direction, so nearly every Next is one cache miss.
func BenchmarkEdgeCounters(b *testing.B) {
	benchEdgeCounters(b, false)
}

// BenchmarkEdgeCountersWide is the same with every pair moved to the wide
// table, as a pair that passed 2046 draws is: each Next reads the packed
// slot's mark, then the wide slot.
func BenchmarkEdgeCountersWide(b *testing.B) {
	benchEdgeCounters(b, true)
}

func benchEdgeCounters(b *testing.B, moveAll bool) {
	const pairs = 500_000
	rnd := rand.New(rand.NewSource(1))
	from, to := make([]uint32, pairs), make([]uint32, pairs)
	var tab EdgeCounters
	for i := range from {
		from[i], to[i] = uint32(rnd.Intn(20000)), uint32(rnd.Intn(20000))
		tab.Next(from[i], to[i])
	}
	if moveAll {
		for i := range tab.slots {
			if tab.slots[i] != 0 {
				tab.move(&tab.slots[i])
			}
		}
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
