package overlay

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAdjPoolBasics exercises the chunk-chained set through grow, update,
// shifting delete and clear, checking contents.
func TestAdjPoolBasics(t *testing.T) {
	var p AdjPool
	var s AdjSet

	// Fill past one chunk so the set chains.
	const n = adjChunkCap*2 + 1
	for i := 1; i <= n; i++ {
		p.Put(&s, NodeID(i), float64(i))
	}
	if p.Len(&s) != n {
		t.Fatalf("Len = %d, want %d", p.Len(&s), n)
	}
	if d, ok := p.Get(&s, NodeID(5)); !ok || d != 5 {
		t.Fatalf("Get(5) = %v,%v", d, ok)
	}
	p.Put(&s, NodeID(5), 50) // update must not grow
	if d, _ := p.Get(&s, NodeID(5)); d != 50 {
		t.Fatalf("update lost: Get(5) = %v", d)
	}
	if p.Len(&s) != n {
		t.Fatalf("update changed Len to %d", p.Len(&s))
	}

	// A mid-set delete removes exactly one entry, and the count tracks.
	if !p.Delete(&s, NodeID(2)) || p.Delete(&s, NodeID(2)) {
		t.Fatal("Delete(2) should succeed exactly once")
	}
	got := p.AppendIDs(&s, nil)
	if len(got) != n-1 {
		t.Fatalf("after delete: %d ids, want %d", len(got), n-1)
	}
	seen := map[NodeID]bool{}
	for _, id := range got {
		seen[id] = true
	}
	for i := 1; i <= n; i++ {
		if want := i != 2; seen[NodeID(i)] != want {
			t.Fatalf("after delete: presence of %d = %v, want %v", i, seen[NodeID(i)], want)
		}
	}

	p.Clear(&s)
	if p.Len(&s) != 0 || p.ChunksInUse() != 0 {
		t.Fatalf("after Clear: len=%d inUse=%d", p.Len(&s), p.ChunksInUse())
	}
}

// TestAdjPoolKeepsIDOrder drives several sets sharing one pool through
// random Put, Delete and Clear calls against a reference map, with ids
// drawn from a range wide enough for multi-chunk sets. After every step
// each set's AppendIDs must ascend and list exactly the map's keys, Each
// must pair them with the map's distances, and Get and Len must agree
// with the map; clearing every set at the end must return every chunk.
func TestAdjPoolKeepsIDOrder(t *testing.T) {
	var p AdjPool
	sets := make([]AdjSet, 5)
	refs := make([]map[NodeID]float64, len(sets))
	for i := range refs {
		refs[i] = map[NodeID]float64{}
	}
	rnd := rand.New(rand.NewSource(1))
	const maxID = 6 * adjChunkCap
	var ids []NodeID
	longest := 0
	for step := 0; step < 20000; step++ {
		si := rnd.Intn(len(sets))
		s, ref := &sets[si], refs[si]
		id := NodeID(rnd.Intn(maxID))
		switch r := rnd.Intn(100); {
		case r < 55:
			d := float64(step)
			p.Put(s, id, d)
			ref[id] = d
		case r < 99:
			_, want := ref[id]
			if got := p.Delete(s, id); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, id, got, want)
			}
			delete(ref, id)
		default:
			p.Clear(s)
			clear(ref)
		}

		ids = p.AppendIDs(s, ids[:0])
		want := make([]NodeID, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		slices.Sort(want)
		if !slices.Equal(ids, want) {
			t.Fatalf("step %d: set %d ids %v, want %v", step, si, ids, want)
		}
		if p.Len(s) != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, p.Len(s), len(ref))
		}
		longest = max(longest, len(ref))
		k := 0
		p.Each(s, func(id NodeID, d float64) {
			if id != want[k] || d != ref[id] {
				t.Fatalf("step %d: Each entry %d = (%d, %v), want (%d, %v)", step, k, id, d, want[k], ref[want[k]])
			}
			k++
		})
		probe := NodeID(rnd.Intn(maxID))
		d, ok := p.Get(s, probe)
		if rd, rok := ref[probe]; ok != rok || d != rd {
			t.Fatalf("step %d: Get(%d) = %v,%v, want %v,%v", step, probe, d, ok, rd, rok)
		}
	}
	if longest <= 2*adjChunkCap {
		t.Fatalf("longest set held %d entries; the walk never chained three chunks", longest)
	}
	for i := range sets {
		p.Clear(&sets[i])
	}
	if n := p.ChunksInUse(); n != 0 {
		t.Fatalf("after clearing every set: %d chunks in use, want 0", n)
	}
}

// TestAdjPoolSteadyStateAllocs pins the promise in the AdjPool doc
// comment: once the slab has grown to cover the working set, churn —
// children joining and leaving — allocates nothing. This is what makes
// the pool's handle-per-peer layout cheaper than maps not just in bytes
// but in GC pressure at 100k-peer scale.
func TestAdjPoolSteadyStateAllocs(t *testing.T) {
	var p AdjPool
	sets := make([]AdjSet, 8)

	churn := func() {
		for si := range sets {
			s := &sets[si]
			for i := 1; i <= adjChunkCap*3; i++ {
				p.Put(s, NodeID(si*100+i), float64(i))
			}
			for i := 1; i <= adjChunkCap*2; i++ {
				p.Delete(s, NodeID(si*100+i))
			}
			p.Clear(s)
		}
	}
	churn() // warm: grow the slab to steady-state size

	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f times per cycle, want 0", allocs)
	}
}
