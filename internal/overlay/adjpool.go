package overlay

// AdjPool is a shared slab for the small (id, distance) sets every peer
// keeps: children and fosters. Per-peer Go maps cost ~300 bytes each
// even when empty — two per peer across 100k peers is real memory — and
// scatter entries across the heap. The pool instead stores entries in
// fixed-size chunks inside one growable slab, linked by int32 indices,
// so a peer's set is a 8-byte handle (head index + count) and the
// whole population's adjacency lives in a few contiguous allocations
// the GC scans without chasing pointers.
//
// Layout: each chunk holds up to adjChunkCap entries (struct-of-arrays
// inside the chunk) plus a link to the peer's next chunk. Freed chunks
// go on an intrusive free list and are reused, so steady-state churn
// (children joining and leaving) allocates nothing — pinned by
// TestAdjPoolSteadyStateAllocs.
//
// Determinism: a set keeps its entries in ascending id order — Put
// inserts in place, Delete shifts the later entries down, and every chunk
// but the tail stays full. Iteration order is therefore a function of the
// set's contents alone (not of the event sequence that built it, and
// unlike a Go map range, not randomized), and it is already the canonical
// order snapshots and fan-outs need: callers sort nothing.
//
// Concurrency: a pool is confined to one Bus's execution context (the
// serial event loop, one shard's loop, or one live peer's mailbox);
// there is no locking.
type AdjPool struct {
	chunks []adjChunk
	free   int32 // head of free-chunk list, 0 if empty
}

// adjChunkCap is the entries-per-chunk capacity. Tree fanout under the
// default degree budgets is small (most peers have ≤4 children), so one
// chunk covers the common case; deep-fanout peers chain a few.
const adjChunkCap = 4

// Chunk index 0 is reserved at first use and never handed out, so 0 is
// the null index everywhere — set heads, chain links, and the free list —
// and the zero AdjSet/AdjPool values are ready to use.

type adjChunk struct {
	ids  [adjChunkCap]NodeID
	dist [adjChunkCap]float64
	n    int32
	next int32
}

// AdjSet is one peer's handle into the pool: a chunk-list head plus the
// total entry count. The zero value is an empty set.
type AdjSet struct {
	head  int32
	count int32
}

// alloc returns a cleared chunk index.
func (p *AdjPool) alloc() int32 {
	if p.free != 0 {
		i := p.free
		c := &p.chunks[i]
		p.free = c.next
		c.n = 0
		c.next = 0
		return i
	}
	if len(p.chunks) == 0 {
		// Reserve index 0 so the zero AdjSet{head: 0} cannot alias a
		// live chunk.
		p.chunks = append(p.chunks, adjChunk{})
	}
	p.chunks = append(p.chunks, adjChunk{})
	return int32(len(p.chunks) - 1)
}

// release pushes chunk i onto the free list.
func (p *AdjPool) release(i int32) {
	p.chunks[i] = adjChunk{next: p.free}
	p.free = i
}

// Len returns the number of entries in s.
func (p *AdjPool) Len(s *AdjSet) int { return int(s.count) }

// Get returns the distance stored for id and whether it is present.
func (p *AdjPool) Get(s *AdjSet, id NodeID) (float64, bool) {
	for i := s.head; i > 0; {
		c := &p.chunks[i]
		for j := int32(0); j < c.n; j++ {
			if c.ids[j] == id {
				return c.dist[j], true
			}
		}
		i = c.next
	}
	return 0, false
}

// Has reports whether id is present.
func (p *AdjPool) Has(s *AdjSet, id NodeID) bool {
	_, ok := p.Get(s, id)
	return ok
}

// Put inserts or updates id's distance, keeping the set in id order.
func (p *AdjPool) Put(s *AdjSet, id NodeID, dist float64) {
	// Find the first entry with an id ≥ id: chunk ci, position j. Past
	// every entry, ci is the tail chunk and j its count.
	ci, j := s.head, int32(0)
	for ci > 0 {
		c := &p.chunks[ci]
		for j = 0; j < c.n && c.ids[j] < id; j++ {
		}
		if j < c.n {
			if c.ids[j] == id {
				c.dist[j] = dist
				return
			}
			break
		}
		if c.next == 0 {
			break
		}
		ci = c.next
	}
	// Insert at (ci, j). A full chunk passes its last entry on to the
	// front of the next one; past the tail, a fresh chunk takes it.
	s.count++
	last := int32(0)
	for ci > 0 {
		c := &p.chunks[ci]
		if c.n < adjChunkCap {
			copy(c.ids[j+1:c.n+1], c.ids[j:c.n])
			copy(c.dist[j+1:c.n+1], c.dist[j:c.n])
			c.ids[j], c.dist[j] = id, dist
			c.n++
			return
		}
		if j < adjChunkCap {
			outID, outDist := c.ids[adjChunkCap-1], c.dist[adjChunkCap-1]
			copy(c.ids[j+1:], c.ids[j:adjChunkCap-1])
			copy(c.dist[j+1:], c.dist[j:adjChunkCap-1])
			c.ids[j], c.dist[j] = id, dist
			id, dist = outID, outDist
		}
		last, ci, j = ci, c.next, 0
	}
	ni := p.alloc()
	c := &p.chunks[ni]
	c.ids[0], c.dist[0], c.n = id, dist, 1
	if last == 0 {
		s.head = ni
	} else {
		p.chunks[last].next = ni
	}
}

// Delete removes id if present, reporting whether it was. The entries
// after it shift down one place, each chunk taking the front entry of
// the next, so chunks stay full and an emptied tail chunk returns to the
// free list.
func (p *AdjPool) Delete(s *AdjSet, id NodeID) bool {
	ci, prev, j := s.head, int32(0), int32(0)
	for ; ci > 0; prev, ci = ci, p.chunks[ci].next {
		c := &p.chunks[ci]
		if c.ids[c.n-1] < id {
			continue
		}
		for j = 0; c.ids[j] < id; j++ {
		}
		if c.ids[j] != id {
			return false
		}
		break
	}
	if ci == 0 {
		return false
	}
	s.count--
	for {
		c := &p.chunks[ci]
		copy(c.ids[j:c.n-1], c.ids[j+1:c.n])
		copy(c.dist[j:c.n-1], c.dist[j+1:c.n])
		if c.next == 0 {
			c.n--
			if c.n == 0 {
				if prev == 0 {
					s.head = 0
				} else {
					p.chunks[prev].next = 0
				}
				p.release(ci)
			}
			return true
		}
		nc := &p.chunks[c.next]
		c.ids[c.n-1], c.dist[c.n-1] = nc.ids[0], nc.dist[0]
		prev, ci, j = ci, c.next, 0
	}
}

// Clear empties the set, returning all its chunks to the free list.
func (p *AdjPool) Clear(s *AdjSet) {
	for i := s.head; i > 0; {
		next := p.chunks[i].next
		p.release(i)
		i = next
	}
	s.head = 0
	s.count = 0
}

// Each calls fn for every entry in id order.
func (p *AdjPool) Each(s *AdjSet, fn func(id NodeID, dist float64)) {
	for i := s.head; i > 0; {
		c := &p.chunks[i]
		for j := int32(0); j < c.n; j++ {
			fn(c.ids[j], c.dist[j])
		}
		i = c.next
	}
}

// AppendIDs appends the set's ids to dst in id order and returns it —
// the zero-alloc snapshot primitive.
func (p *AdjPool) AppendIDs(s *AdjSet, dst []NodeID) []NodeID {
	for i := s.head; i > 0; {
		c := &p.chunks[i]
		dst = append(dst, c.ids[:c.n]...)
		i = c.next
	}
	return dst
}
