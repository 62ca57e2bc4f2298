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

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.RateChunksPerS != 8000 || c.AckEvery != 16 || c.TickS != 0.02 ||
		c.FECGroup != 16 || c.NackDelayS != 0.03 || c.StallS != 0.25 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Explicit values survive; FECGroup clamps at 64.
	c = Config{FECGroup: 100, AckEvery: 7}.WithDefaults()
	if c.FECGroup != 64 || c.AckEvery != 7 {
		t.Fatalf("override defaults: %+v", c)
	}
}
