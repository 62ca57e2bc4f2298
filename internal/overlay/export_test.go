package overlay

// HoldsWalk reports whether d still holds walk state: the walk record
// with its timer free list, or the prober's recycled rounds.
func (d *Descent) HoldsWalk() bool {
	return d.w != nil || d.prober.free != nil || d.prober.freeTO != nil
}

// Counters returns the network's (or its fabric's) traffic counters.
func (n *Network) Counters() *Counters { return n.ctrs }

// PutChild inserts or refreshes a regular child edge directly — the
// test-seam equivalent of a completed adoption.
func (p *Peer) PutChild(c NodeID, dist float64) { p.pool.Put(&p.children, c, dist) }

// PutFoster inserts or refreshes a foster edge directly.
func (p *Peer) PutFoster(c NodeID, dist float64) { p.pool.Put(&p.fosters, c, dist) }

// DelChild removes a regular child edge directly.
func (p *Peer) DelChild(c NodeID) { p.pool.Delete(&p.children, c) }

// ChunksInUse returns the number of chunks owned by sets: every chunk
// but the reserved index 0 and those on the free list.
func (p *AdjPool) ChunksInUse() int {
	if len(p.chunks) == 0 {
		return 0
	}
	n := len(p.chunks) - 1
	for i := p.free; i != 0; i = p.chunks[i].next {
		n--
	}
	return n
}

// FlowRetainChunks is the retransmit ring's length in chunks.
const FlowRetainChunks = flowRetainChunks

// FlowNackRetries is how many NACKs go to the parent before the repair
// neighbor; a stall-pull round holds one pull more.
const FlowNackRetries = flowNackRetries

// StarveCheckPeriodS is the starvation watchdog's period.
const StarveCheckPeriodS = starveCheckPeriodS
