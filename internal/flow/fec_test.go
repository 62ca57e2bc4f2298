package flow

import (
	"bytes"
	"fmt"
	"testing"
)

func payloadFor(seq int64) []byte {
	// Variable-length payloads so XorLen actually matters.
	return []byte(fmt.Sprintf("chunk-%d-%s", seq, string(make([]byte, seq%7))))
}

func TestFECRoundTripEachLoss(t *testing.T) {
	const k = 4
	for lost := int64(0); lost < k; lost++ {
		enc := NewEncoder(k)
		var parity Parity
		var ok bool
		for s := int64(0); s < k; s++ {
			parity, ok = enc.Add(s, payloadFor(s))
		}
		if !ok {
			t.Fatal("no parity after full group")
		}
		dec := NewDecoder(k, 8)
		for s := int64(0); s < k; s++ {
			if s == lost {
				continue
			}
			if _, rec := dec.AddData(s, payloadFor(s)); rec {
				t.Fatal("recovered before parity")
			}
		}
		rec, recovered, fresh := dec.AddParity(parity)
		if !fresh || !recovered {
			t.Fatalf("lost=%d: fresh=%v recovered=%v", lost, fresh, recovered)
		}
		if rec.Seq != lost || !bytes.Equal(rec.Payload, payloadFor(lost)) {
			t.Fatalf("lost=%d: recovered seq=%d payload=%q", lost, rec.Seq, rec.Payload)
		}
	}
}

func TestFECParityFirstThenData(t *testing.T) {
	const k = 3
	enc := NewEncoder(k)
	var parity Parity
	for s := int64(6); s < 6+k; s++ { // group aligned at 6
		parity, _ = enc.Add(s, payloadFor(s))
	}
	dec := NewDecoder(k, 8)
	if _, recovered, fresh := dec.AddParity(parity); recovered || !fresh {
		t.Fatal("parity alone recovered something")
	}
	dec.AddData(6, payloadFor(6))
	rec, ok := dec.AddData(8, payloadFor(8))
	if !ok || rec.Seq != 7 || !bytes.Equal(rec.Payload, payloadFor(7)) {
		t.Fatalf("recovery via AddData failed: %v %v", rec, ok)
	}
}

func TestFECNilPayloads(t *testing.T) {
	// The simulator and vdmd's default stream carry nil payloads; FEC
	// must still track groups and "recover" the empty payload.
	const k = 4
	enc := NewEncoder(k)
	var parity Parity
	for s := int64(0); s < k; s++ {
		parity, _ = enc.Add(s, nil)
	}
	dec := NewDecoder(k, 8)
	dec.AddData(0, nil)
	dec.AddData(1, nil)
	dec.AddData(3, nil)
	rec, recovered, _ := dec.AddParity(parity)
	if !recovered || rec.Seq != 2 || len(rec.Payload) != 0 {
		t.Fatalf("nil-payload recovery: %v %v", rec, recovered)
	}
}

func TestFECCompleteGroupNoRecovery(t *testing.T) {
	const k = 3
	dec := NewDecoder(k, 8)
	for s := int64(0); s < k; s++ {
		if _, ok := dec.AddData(s, payloadFor(s)); ok {
			t.Fatal("recovery without loss")
		}
	}
	enc := NewEncoder(k)
	var parity Parity
	for s := int64(0); s < k; s++ {
		parity, _ = enc.Add(s, payloadFor(s))
	}
	if _, recovered, fresh := dec.AddParity(parity); recovered || fresh {
		t.Fatal("parity for a completed group acted")
	}
}

func TestFECDuplicateDataAndParity(t *testing.T) {
	const k = 3
	dec := NewDecoder(k, 8)
	dec.AddData(0, payloadFor(0))
	if _, ok := dec.AddData(0, payloadFor(0)); ok {
		t.Fatal("duplicate data recovered")
	}
	enc := NewEncoder(k)
	var parity Parity
	for s := int64(0); s < k; s++ {
		parity, _ = enc.Add(s, payloadFor(s))
	}
	if _, _, fresh := dec.AddParity(parity); !fresh {
		t.Fatal("first parity not fresh")
	}
	if _, recovered, fresh := dec.AddParity(parity); fresh || recovered {
		t.Fatal("duplicate parity accepted")
	}
}

func TestFECTwoLossesNotRecoverable(t *testing.T) {
	const k = 4
	enc := NewEncoder(k)
	var parity Parity
	for s := int64(0); s < k; s++ {
		parity, _ = enc.Add(s, payloadFor(s))
	}
	dec := NewDecoder(k, 8)
	dec.AddData(0, payloadFor(0))
	dec.AddData(1, payloadFor(1))
	if _, recovered, _ := dec.AddParity(parity); recovered {
		t.Fatal("recovered with two losses")
	}
}

func TestFECGroupEviction(t *testing.T) {
	dec := NewDecoder(2, 2)
	dec.AddData(0, payloadFor(0)) // group 0
	dec.AddData(2, payloadFor(2)) // group 2
	dec.AddData(4, payloadFor(4)) // group 4 — evicts group 0
	if len(dec.groups) != 2 {
		t.Fatalf("groups=%d, want 2", len(dec.groups))
	}
	if _, ok := dec.groups[0]; ok {
		t.Fatal("oldest group not evicted")
	}
}

func TestGroupOfNegative(t *testing.T) {
	if g := groupOf(-1, 4); g != -4 {
		t.Fatalf("groupOf(-1,4)=%d, want -4", g)
	}
	if g := groupOf(7, 4); g != 4 {
		t.Fatalf("groupOf(7,4)=%d, want 4", g)
	}
}

func TestBucketPacing(t *testing.T) {
	b := NewBucket(10, 2) // 10/s, burst 2
	now := 0.0
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("burst tokens missing")
	}
	if b.Allow(now) {
		t.Fatal("admitted beyond burst")
	}
	if !b.Allow(now + 0.1) { // one token refilled
		t.Fatal("refill after 0.1s missing")
	}
	if b.Allow(now + 0.1) {
		t.Fatal("double admission after single refill")
	}
	// Long idle refills only to burst.
	now = 100
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("burst after idle missing")
	}
	if b.Allow(now) {
		t.Fatal("idle accumulated beyond burst")
	}
}

func TestBucketUnlimitedAndSetRate(t *testing.T) {
	b := NewBucket(-1, 4)
	for i := 0; i < 100; i++ {
		if !b.Allow(0) {
			t.Fatal("unlimited bucket refused")
		}
	}
	b = NewBucket(10, 1)
	b.Allow(0)
	b.SetRate(1000)
	if b.Rate() != 1000 {
		t.Fatal("SetRate lost")
	}
	if !b.Allow(0.01) { // 10 tokens at the new rate
		t.Fatal("new rate not applied")
	}
}

func TestCacheRing(t *testing.T) {
	c := NewCache(8)
	for s := int64(0); s < 20; s++ {
		c.Put(s, payloadFor(s))
	}
	for s := int64(0); s < 12; s++ {
		if _, ok := c.Get(s); ok {
			t.Fatalf("evicted seq %d still resident", s)
		}
	}
	for s := int64(12); s < 20; s++ {
		pl, ok := c.Get(s)
		if !ok || !bytes.Equal(pl, payloadFor(s)) {
			t.Fatalf("recent seq %d missing", s)
		}
	}
}

// TestConfigDefaults checks the defaults of Config's three fields; the
// data plane's timers (flowTickS, flowAckEvery, flowNackDelayS) are
// constants in internal/overlay/flow.go.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.RateChunksPerS != 8000 || c.FECGroup != 16 || c.StallS != 0.25 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Explicit values survive; FECGroup clamps at 64.
	c = Config{FECGroup: 100, RateChunksPerS: -1}.WithDefaults()
	if c.FECGroup != 64 || c.RateChunksPerS != -1 {
		t.Fatalf("override defaults: %+v", c)
	}
}

// fuzzScript reads a fuzz input one byte at a time, zeros once it runs out.
type fuzzScript []byte

func (s *fuzzScript) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// fecPacket is one data or parity chunk on the simulated link.
type fecPacket struct {
	seq     int64
	payload []byte
	parity  *Parity
}

// FuzzFECDecoder drives an Encoder and a Decoder from fuzzer bytes. The
// source adds chunks in sequence order (sometimes skipping a number, so a
// group is abandoned); the link between encoder and decoder drops,
// duplicates and reorders the data and parity chunks. The decoder must
// not panic, and every payload it recovers must be the one the encoder
// was given for that sequence number. The group size, the decoder's group
// cap (small, so groups are evicted and opened again) and the first
// sequence number (possibly negative) come from the first bytes.
func FuzzFECDecoder(f *testing.F) {
	// k = 2 from seq 0: chunks 0 and 1 and their parity go out, chunk 0
	// is dropped, chunk 1 and the parity arrive, chunk 0 is recovered.
	f.Add([]byte{0, 0, 0, 0, 1, 'a', 0, 1, 'b', 3, 0, 0, 3, 0, 1, 3, 0, 1})
	f.Add([]byte{4, 0, 250, 0, 9, 0, 0, 1, 4, 0, 2, 2, 3, 3, 2, 0, 0, 2, 1, 1, 4, 2, 1, 3})
	f.Add([]byte{1, 1, 7, 1, 33, 1, 0, 1, 2, 4, 1, 3, 2, 5, 3, 2, 7, 3, 2, 1, 2, 2, 2, 0, 2, 9, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		s := fuzzScript(in)
		k := 2 + int(s.next()%15)
		enc, dec := NewEncoder(k), NewDecoder(k, 1+int(s.next()%4))
		seq := int64(int8(s.next()))
		sent := make(map[int64][]byte)
		var link []fecPacket
		deliver := func(p fecPacket) {
			var rec Recovered
			var ok bool
			if p.parity != nil {
				rec, ok, _ = dec.AddParity(*p.parity)
			} else {
				rec, ok = dec.AddData(p.seq, p.payload)
			}
			if !ok {
				return
			}
			if want, known := sent[rec.Seq]; !known || !bytes.Equal(rec.Payload, want) {
				t.Fatalf("recovered seq %d as %x, encoder saw %x (sent: %v)", rec.Seq, rec.Payload, want, known)
			}
		}
		for step := 0; step < 512 && len(s) > 0; step++ {
			switch op := s.next(); op % 5 {
			case 0, 1: // the source emits the next chunk
				payload := make([]byte, s.next()%48)
				for i := range payload {
					payload[i] = s.next()
				}
				sent[seq] = payload
				link = append(link, fecPacket{seq: seq, payload: payload})
				if p, ok := enc.Add(seq, payload); ok {
					link = append(link, fecPacket{parity: &p})
				}
				seq++
			case 2: // the source skips a sequence number
				seq++
			default: // the link acts on one chunk in flight
				if len(link) == 0 {
					continue
				}
				i := int(s.next()) % len(link)
				p := link[i]
				fate := s.next() % 4
				if fate != 3 { // 3 delivers and keeps a copy for a duplicate
					link = append(link[:i], link[i+1:]...)
				}
				if fate != 0 { // 0 drops
					deliver(p)
				}
			}
		}
		for _, p := range link {
			deliver(p)
		}
	})
}
