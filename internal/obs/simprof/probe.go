package simprof

import "vdm/internal/overlay"

// Probe is one bus's profiling tap: message counts by type, per-peer
// involvement (sends plus receives) and per-directed-edge volume,
// accumulated since the last barrier merge. Each shard owns a private
// probe (no locks on the hot path); the recorder merges and resets them
// single-threaded at flush barriers. The edge counts live in a private
// open-addressing table rather than a Go map: ObserveSend runs once per
// simulated message, and the map's hashing dominated the recorder's
// wall-clock overhead at 10k+ peers.
type Probe struct {
	msgs  [overlay.NumTypes]uint64
	peers []uint32
	edges edgeTable
}

var _ overlay.SendProbe = (*Probe)(nil)

func newProbe(pool int) *Probe {
	p := &Probe{peers: make([]uint32, pool)}
	p.edges.init(1 << 10)
	return p
}

// ObserveSend implements overlay.SendProbe.
func (p *Probe) ObserveSend(from, to overlay.NodeID, m overlay.Message) {
	p.msgs[overlay.TypeOf(m)]++
	if f := int(from); f >= 0 && f < len(p.peers) {
		p.peers[f]++
	}
	if t := int(to); t >= 0 && t < len(p.peers) {
		p.peers[t]++
	}
	p.edges.inc(uint64(uint32(from))<<32 | uint64(uint32(to)))
}

// drainInto folds the probe's counts into the recorder's merge buffers
// and resets it for the next interval. Barrier-only: the probe's shard
// must be paused.
func (p *Probe) drainInto(msgs *[overlay.NumTypes]uint64, peers []uint64, edges map[uint64]uint64) {
	for k, n := range p.msgs {
		msgs[k] += n
		p.msgs[k] = 0
	}
	for i, n := range p.peers {
		if n != 0 {
			peers[i] += uint64(n)
			p.peers[i] = 0
		}
	}
	p.edges.drainInto(edges)
}

// edgeTable is a linear-probing counter table over packed directed-edge
// keys. Keys are never zero (an edge has distinct endpoints, and peer 0
// sending to itself does not occur), so zero marks an empty slot.
type edgeTable struct {
	keys   []uint64
	counts []uint32
	used   int
	mask   uint64
}

func (t *edgeTable) init(capacity int) {
	t.keys = make([]uint64, capacity)
	t.counts = make([]uint32, capacity)
	t.mask = uint64(capacity - 1)
	t.used = 0
}

func (t *edgeTable) inc(key uint64) {
	if key == 0 {
		return
	}
	// Fibonacci hashing spreads the packed (from, to) pairs; linear probe.
	i := (key * 0x9E3779B97F4A7C15) & t.mask
	for {
		switch t.keys[i] {
		case key:
			t.counts[i]++
			return
		case 0:
			if t.used*4 >= len(t.keys)*3 { // keep load factor under 3/4
				t.grow()
				t.inc(key)
				return
			}
			t.keys[i], t.counts[i] = key, 1
			t.used++
			return
		}
		i = (i + 1) & t.mask
	}
}

func (t *edgeTable) grow() {
	old := *t
	t.init(len(old.keys) * 2)
	for i, k := range old.keys {
		if k == 0 {
			continue
		}
		j := (k * 0x9E3779B97F4A7C15) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j], t.counts[j] = k, old.counts[i]
		t.used++
	}
}

// drainInto merges and clears the table. The backing arrays are kept at
// their grown size, so steady-state intervals allocate nothing.
func (t *edgeTable) drainInto(edges map[uint64]uint64) {
	for i, k := range t.keys {
		if k != 0 {
			edges[k] += uint64(t.counts[i])
			t.keys[i], t.counts[i] = 0, 0
		}
	}
	t.used = 0
}

// edgeEndpoints unpacks a packed directed-edge key.
func edgeEndpoints(e uint64) (from, to int) {
	return int(int32(uint32(e >> 32))), int(int32(uint32(e)))
}
