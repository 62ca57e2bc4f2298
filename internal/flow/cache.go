package flow

// Cache is the retransmit store: a ring over sequence numbers holding
// the most recent payload per slot, so a parent (or repair neighbor) can
// serve NACKs for anything within the ring's length of sequences. Slots
// hold references to the decoded payloads — the wire codec guarantees
// those are private copies, so no duplication happens here. Safe only
// within one peer's serialized flow state.
type Cache struct {
	seqs []int64
	data [][]byte
}

// NewCache builds a cache retaining n sequence numbers.
func NewCache(n int) *Cache {
	c := &Cache{seqs: make([]int64, n), data: make([][]byte, n)}
	for i := range c.seqs {
		c.seqs[i] = -1 << 62
	}
	return c
}

func (c *Cache) slot(seq int64) int {
	i := seq % int64(len(c.seqs))
	if i < 0 {
		i += int64(len(c.seqs))
	}
	return int(i)
}

// Put stores the payload for seq, displacing whatever older sequence
// occupied the slot.
func (c *Cache) Put(seq int64, payload []byte) {
	i := c.slot(seq)
	c.seqs[i] = seq
	c.data[i] = payload
}

// Get returns the payload stored for seq, if it is still resident.
func (c *Cache) Get(seq int64) ([]byte, bool) {
	i := c.slot(seq)
	if c.seqs[i] != seq {
		return nil, false
	}
	return c.data[i], true
}
