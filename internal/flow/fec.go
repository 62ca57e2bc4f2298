package flow

import "math/bits"

// FEC group layout: the stream is cut into fixed groups of k consecutive
// sequence numbers aligned to multiples of k — group g covers seqs
// [g, g+k). The source emits one parity chunk per complete group: the
// byte-wise XOR of the k payloads (each padded with zeros to the longest)
// plus the XOR of their lengths, so a receiver holding any k-1 payloads
// and the parity can reconstruct the missing payload and its exact
// length. One parity repairs exactly one loss per group — the
// Reed–Solomon-lite tradeoff: 1/k overhead, single-erasure correction,
// trivial arithmetic.

// Parity is one parity chunk for FEC group Group (covering sequence
// numbers [Group, Group+K)): Data is the XOR of the group's payloads
// padded to the longest, XorLen the XOR of their lengths.
type Parity struct {
	Group  int64
	K      int
	XorLen uint32
	Data   []byte
}

// Recovered is a payload reconstructed from parity.
type Recovered struct {
	Seq     int64
	Payload []byte
}

// groupOf returns the FEC group (floor to a multiple of k) for seq.
func groupOf(seq int64, k int) int64 {
	g := seq / int64(k)
	if seq < 0 && seq%int64(k) != 0 {
		g--
	}
	return g * int64(k)
}

// Encoder accumulates outbound payloads and emits one Parity per
// complete group of k. It assumes the in-order source emission path:
// only one group is open at a time, and a group abandoned before
// completion (seq jump) simply never yields parity. Not safe for
// concurrent use.
type Encoder struct {
	k      int
	group  int64
	have   uint64
	xorLen uint32
	data   []byte
	active bool
}

// NewEncoder builds an encoder with group size k, clamped to [2, 64].
func NewEncoder(k int) *Encoder {
	if k < 2 {
		k = 2
	}
	if k > 64 {
		k = 64
	}
	return &Encoder{k: k}
}

// Add folds one payload into the current group and, when the group
// completes, returns its parity chunk (Data freshly allocated, safe to
// retain) and true.
func (e *Encoder) Add(seq int64, payload []byte) (Parity, bool) {
	g := groupOf(seq, e.k)
	if !e.active || g != e.group {
		e.group = g
		e.have = 0
		e.xorLen = 0
		e.data = e.data[:0]
		e.active = true
	}
	bit := uint64(1) << uint(seq-e.group)
	if e.have&bit != 0 {
		return Parity{}, false
	}
	e.have = e.have | bit
	e.data = xorInto(e.data, payload)
	e.xorLen ^= uint32(len(payload))
	if bits.OnesCount64(e.have) < e.k {
		return Parity{}, false
	}
	p := Parity{
		Group:  e.group,
		K:      e.k,
		XorLen: e.xorLen,
		Data:   append([]byte(nil), e.data...),
	}
	e.active = false
	return p, true
}

// xorInto folds src into acc byte-wise, growing acc to the longer of the
// two, and returns the (possibly reallocated) accumulator.
func xorInto(acc, src []byte) []byte {
	for len(acc) < len(src) {
		acc = append(acc, 0)
	}
	for i, b := range src {
		acc[i] ^= b
	}
	return acc
}

// Decoder tracks inbound payloads and parity per FEC group and
// reconstructs the single missing payload of a group once k-1 payloads
// and the parity are in hand. It bounds its memory to maxGroups open
// groups, evicting the oldest. Not safe for concurrent use.
type Decoder struct {
	k         int
	maxGroups int
	groups    map[int64]*decGroup
}

type decGroup struct {
	have   uint64
	n      int
	xorLen uint32
	data   []byte
	parity []byte
	pLen   uint32
	hasPar bool
	done   bool
}

// NewDecoder builds a decoder for group size k (clamped to [2, 64])
// keeping state for at most maxGroups concurrent groups (<= 0 means 64).
func NewDecoder(k, maxGroups int) *Decoder {
	if k < 2 {
		k = 2
	}
	if k > 64 {
		k = 64
	}
	if maxGroups <= 0 {
		maxGroups = 64
	}
	return &Decoder{k: k, maxGroups: maxGroups, groups: make(map[int64]*decGroup)}
}

// AddData folds one received payload into its group and returns a
// reconstructed missing payload if this completes a parity-assisted
// recovery.
func (d *Decoder) AddData(seq int64, payload []byte) (Recovered, bool) {
	g := d.ensure(groupOf(seq, d.k))
	if g == nil || g.done {
		return Recovered{}, false
	}
	bit := uint64(1) << uint(seq-groupOf(seq, d.k))
	if g.have&bit != 0 {
		return Recovered{}, false
	}
	g.have |= bit
	g.n++
	g.data = xorInto(g.data, payload)
	g.xorLen ^= uint32(len(payload))
	if g.n == d.k {
		// Complete without loss; parity (if any) is moot.
		g.done = true
		g.data = nil
		g.parity = nil
		return Recovered{}, false
	}
	return d.tryRecover(groupOf(seq, d.k), g)
}

// AddParity registers a parity chunk. recovered reports a reconstructed
// payload; fresh reports whether this parity was new for its group (the
// caller forwards fresh parity downstream and drops duplicates).
func (d *Decoder) AddParity(p Parity) (rec Recovered, recovered, fresh bool) {
	if p.K != d.k {
		return Recovered{}, false, false
	}
	g := d.ensure(p.Group)
	if g == nil || g.done || g.hasPar {
		return Recovered{}, false, false
	}
	g.hasPar = true
	g.parity = p.Data
	g.pLen = p.XorLen
	rec, recovered = d.tryRecover(p.Group, g)
	return rec, recovered, true
}

// tryRecover reconstructs the missing payload when exactly one group
// member is absent and parity is present.
func (d *Decoder) tryRecover(group int64, g *decGroup) (Recovered, bool) {
	if !g.hasPar || g.n != d.k-1 {
		return Recovered{}, false
	}
	mask := uint64(1)<<uint(d.k) - 1
	missing := ^g.have & mask
	idx := bits.TrailingZeros64(missing)
	plen := g.xorLen ^ g.pLen
	maxLen := len(g.data)
	if len(g.parity) > maxLen {
		maxLen = len(g.parity)
	}
	g.done = true
	if int(plen) > maxLen {
		// Inconsistent parity (corruption or mixed k); drop the group.
		g.data = nil
		g.parity = nil
		return Recovered{}, false
	}
	out := make([]byte, plen)
	for i := range out {
		var b byte
		if i < len(g.data) {
			b = g.data[i]
		}
		if i < len(g.parity) {
			b ^= g.parity[i]
		}
		out[i] = b
	}
	g.data = nil
	g.parity = nil
	return Recovered{Seq: group + int64(idx), Payload: out}, true
}

// ensure returns the state for group, creating it and evicting the
// oldest open group beyond the cap.
func (d *Decoder) ensure(group int64) *decGroup {
	if g, ok := d.groups[group]; ok {
		return g
	}
	if len(d.groups) >= d.maxGroups {
		oldest := int64(0)
		first := true
		for k := range d.groups {
			if first || k < oldest {
				oldest = k
				first = false
			}
		}
		delete(d.groups, oldest)
	}
	g := &decGroup{}
	d.groups[group] = g
	return g
}
