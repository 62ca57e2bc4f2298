package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"vdm/internal/overlay"
)

// everyMessage is one instance of each overlay message type, with every
// field populated (including negative node ids and empty/loaded slices).
func everyMessage() []overlay.Message {
	return []overlay.Message{
		overlay.Ping{Token: 42},
		overlay.Pong{Token: 42},
		overlay.InfoRequest{Token: 7},
		overlay.InfoRequest{Token: 8, JoinID: overlay.MakeJoinID(9, 3)},
		overlay.InfoResponse{
			Token: 7,
			Children: []overlay.ChildInfo{
				{ID: 3, Dist: 12.5},
				{ID: 9, Dist: 0.001},
			},
			Free:      2,
			Connected: true,
		},
		overlay.InfoResponse{Token: 8, Children: nil, Free: 0, Connected: false},
		overlay.ConnRequest{Token: 11, Kind: overlay.ConnChild, Dist: 33.25},
		overlay.ConnRequest{
			Token: 12, Kind: overlay.ConnSplice, Dist: 1.5,
			Adopt: []overlay.NodeID{4, 5, 6}, Foster: true,
			JoinID: overlay.MakeJoinID(12, 1),
		},
		overlay.ConnResponse{
			Token: 12, Accepted: true,
			RootPath: []overlay.NodeID{0, 2, 8},
			Adopted:  []overlay.NodeID{4},
		},
		overlay.ConnResponse{
			Token: 13, Accepted: false,
			Children: []overlay.ChildInfo{{ID: 1, Dist: 9}},
		},
		overlay.ParentChange{
			Token: 5, OldParent: 2, Dist: 7.75,
			RootPath: []overlay.NodeID{0, 6},
		},
		overlay.ParentChangeAck{Token: 5, OK: true},
		overlay.ParentChangeAck{Token: 6, OK: false},
		overlay.PathUpdate{Path: []overlay.NodeID{0, 1, 2, 3}},
		overlay.PathUpdate{},
		overlay.Detach{},
		overlay.ParentCheck{},
		overlay.ParentCheckAck{IsChild: true},
		overlay.ParentCheckAck{IsChild: false},
		overlay.LeaveNotify{GrandparentHint: overlay.None},
		overlay.LeaveNotify{GrandparentHint: 17},
		overlay.Reassign{To: 99},
		overlay.DataChunk{Seq: 1234567890123},
		overlay.DataChunk{Seq: 0},
		overlay.DataChunk{Seq: 77, Payload: []byte{0x00, 0x01, 0xfe, 0xff}},
		overlay.DataChunk{Seq: 78, Payload: bytes.Repeat([]byte{0x5a}, MaxChunkPayload)},
		overlay.DataChunk{Seq: 80, Trace: &overlay.ChunkTrace{OriginS: 12.375}},
		overlay.DataChunk{
			Seq: 81, Payload: []byte{0xde, 0xad},
			Trace: &overlay.ChunkTrace{OriginS: 0.5, Hops: 255},
		},
		overlay.StatusReport{
			Seq: 31, Parent: 2, ParentDist: 18.5, SrcDist: 42.25,
			Depth: 3, MaxDegree: 4, Free: 1, Connected: true,
			Children: []overlay.ChildInfo{{ID: 5, Dist: 7.5}, {ID: 8, Dist: 0.125}},
			Received: 120, Forwarded: 240, Dups: 3,
		},
		overlay.StatusReport{
			Seq: 32, Parent: 2, Connected: true,
			FlowOn: true, FlowBaseRate: 2000.5,
			NacksSent: 4, StallPulls: 1, FECRepairs: 2, Skipped: 9,
			ChildFlows: []overlay.ChildFlowStatus{
				{ID: 5, QueueDepth: 12, WindowUsed: 48, RateChunksPerS: 1000.25,
					Stalled: true, Nacks: 3, Pushbacks: 1},
				{ID: 8},
			},
		},
		overlay.StatusReport{Seq: 1, Parent: overlay.None},
		overlay.DataAck{Seq: 0},
		overlay.DataAck{Seq: 1 << 40}, // past uint32: the ack clock must not truncate
		overlay.DataNack{},
		overlay.DataNack{Ranges: []overlay.SeqRange{{Lo: 5, Hi: 5}}},
		overlay.DataNack{Ranges: []overlay.SeqRange{
			{Lo: 100, Hi: 163},
			{Lo: (1 << 32) - 2, Hi: (1 << 32) + 1}, // straddles the uint32 edge
		}},
		overlay.Parity{Group: 48, K: 16, XorLen: 1024},
		overlay.Parity{Group: 0, K: 2, XorLen: 3, Data: []byte{0x0f, 0xf0, 0xaa}},
		overlay.Pushback{Depth: 0},
		overlay.Pushback{Depth: 4096},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range everyMessage() {
		f := Frame{Kind: KindMsg, From: 3, To: 12, Seq: 77, Msg: m}
		b, err := appendFrame(nil, &f)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if n != len(b) {
			t.Fatalf("decode %T consumed %d of %d bytes", m, n, len(b))
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip %T:\n got %#v\nwant %#v", m, got, f)
		}
	}
}

func TestBootstrapFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindAck, From: 4, To: 0, Seq: 31337},
		{Kind: KindHello, From: overlay.None, To: 0, Addr: "127.0.0.1:9001"},
		{Kind: KindWelcome, From: 0, To: overlay.None, Node: 7, Src: 0, EpochS: 123.4375,
			Peers: []PeerAddr{{ID: 0, Addr: "127.0.0.1:9000"}, {ID: 3, Addr: "10.0.0.3:9003"}}},
		{Kind: KindWelcome, From: 0, To: 5, Node: 5, Src: 0},
		{Kind: KindAddrQuery, From: 7, To: 0, Node: 3},
		{Kind: KindAddrReply, From: 0, To: 7, Node: 3, Addr: "10.0.0.3:9003"},
		{Kind: KindAddrReply, From: 0, To: 7, Node: 12, Addr: ""},
	}
	for _, f := range frames {
		b, err := appendFrame(nil, &f)
		if err != nil {
			t.Fatalf("encode %v: %v", f.Kind, err)
		}
		got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode %v: %v", f.Kind, err)
		}
		if n != len(b) {
			t.Fatalf("decode %v consumed %d of %d", f.Kind, n, len(b))
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip %v:\n got %#v\nwant %#v", f.Kind, got, f)
		}
	}
}

func TestStreamOfFrames(t *testing.T) {
	var buf []byte
	var want []Frame
	for i, m := range everyMessage() {
		f := Frame{Kind: KindMsg, From: overlay.NodeID(i), To: 0, Seq: uint32(i), Msg: m}
		var err error
		buf, err = appendFrame(buf, &f)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	var got []Frame
	for len(buf) > 0 {
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("stream decode at %d frames: %v", len(got), err)
		}
		got = append(got, f)
		buf = buf[n:]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream decoded %d frames, want %d (or contents differ)", len(got), len(want))
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := appendFrame(nil, &Frame{Kind: KindMsg, From: 1, To: 2, Seq: 3,
		Msg: overlay.ConnRequest{Token: 1, Adopt: []overlay.NodeID{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":        {},
		"short header": valid[:headerLen-1],
		"bad version":  append([]byte{99}, valid[1:]...),
		"unknown kind": func() []byte { b := bytes.Clone(valid); b[1] = 200; return b }(),
		"truncated":    valid[:len(valid)-1],
		"huge length":  func() []byte { b := bytes.Clone(valid); b[2], b[3] = 0xff, 0xff; return b }(),
		"trailing": func() []byte {
			b := bytes.Clone(valid)
			b[5]++ // lengthen payload by one byte…
			return append(b, 0)
		}(),
		"unknown msg type": func() []byte {
			b := bytes.Clone(valid)
			b[headerLen] = 250
			return b
		}(),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

func TestEncodeRejectsOversizedLists(t *testing.T) {
	big := make([]overlay.NodeID, MaxList+1)
	if _, err := appendFrame(nil, &Frame{Kind: KindMsg, Msg: overlay.PathUpdate{Path: big}}); err == nil {
		t.Fatal("oversized id list encoded")
	}
	if _, err := appendFrame(nil, &Frame{Kind: KindHello, Addr: string(make([]byte, MaxString+1))}); err == nil {
		t.Fatal("oversized address encoded")
	}
	huge := make([]byte, MaxChunkPayload+1)
	if _, err := appendFrame(nil, &Frame{Kind: KindMsg, Msg: overlay.DataChunk{Seq: 1, Payload: huge}}); err == nil {
		t.Fatal("oversized chunk payload encoded")
	}
	if _, err := appendFrame(nil, &Frame{Kind: KindMsg, Msg: overlay.Parity{Group: 0, K: 4, Data: huge}}); err == nil {
		t.Fatal("oversized parity payload encoded")
	}
	manyRanges := make([]overlay.SeqRange, MaxNackRanges+1)
	if _, err := appendFrame(nil, &Frame{Kind: KindMsg, Msg: overlay.DataNack{Ranges: manyRanges}}); err == nil {
		t.Fatal("oversized nack range list encoded")
	}
}

// TestChunkTraceDecodeStrict pins wire v5's strict trace-flag handling:
// the one flag byte after the chunk sequence must be 0 or 1, anything
// else is a decode error rather than a silently-skipped extension.
func TestChunkTraceDecodeStrict(t *testing.T) {
	b, err := appendFrame(nil, &Frame{Kind: KindMsg, From: 1, To: 2, Seq: 3,
		Msg: overlay.DataChunk{Seq: 9, Payload: []byte{1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Flags byte sits after the 18-byte frame header, the message type
	// byte, and the 8-byte chunk sequence.
	b[18+1+8] = 2
	if _, _, err := DecodeFrame(b); err == nil {
		t.Fatal("decoded chunk with unknown trace flags")
	}
}

// TestChunkTraceHopClamp pins the encoder clamping hop counts into the
// single wire byte instead of wrapping.
func TestChunkTraceHopClamp(t *testing.T) {
	b, err := appendFrame(nil, &Frame{Kind: KindMsg, From: 1, To: 2, Seq: 3,
		Msg: overlay.DataChunk{Seq: 9, Trace: &overlay.ChunkTrace{OriginS: 1, Hops: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Msg.(overlay.DataChunk).Trace.Hops; got != 255 {
		t.Fatalf("hops = %d, want clamped 255", got)
	}
}

// TestChunkPayloadDecodeCopies pins the aliasing contract the batched
// receive path depends on: a decoded DataChunk.Payload must not alias the
// input buffer, because transports reuse receive buffers for the next
// datagram while handlers may retain the payload.
func TestChunkPayloadDecodeCopies(t *testing.T) {
	b, err := appendFrame(nil, &Frame{Kind: KindMsg, From: 1, To: 2, Seq: 3,
		Msg: overlay.DataChunk{Seq: 9, Payload: []byte{1, 2, 3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Msg.(overlay.DataChunk).Payload
	for i := range b {
		b[i] = 0xee
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("decoded payload aliases the input buffer: %v", got)
	}
}

// TestPatchTo checks the in-place frame retargeting the fan-out fast path
// uses instead of re-encoding per child.
func TestPatchTo(t *testing.T) {
	b, err := appendFrame(nil, &Frame{Kind: KindMsg, From: 4, To: overlay.None, Seq: 11,
		Msg: overlay.DataChunk{Seq: 5, Payload: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	PatchTo(b, 42)
	f, n, err := DecodeFrame(b)
	if err != nil || n != len(b) {
		t.Fatalf("decode after patch: n=%d err=%v", n, err)
	}
	if f.To != 42 || f.From != 4 || f.Seq != 11 {
		t.Fatalf("patched frame = %+v", f)
	}
	if c := f.Msg.(overlay.DataChunk); c.Seq != 5 || string(c.Payload) != "x" {
		t.Fatalf("payload disturbed by patch: %+v", c)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the decoder: it must never
// panic, and any accepted input must re-encode to exactly the bytes it was
// decoded from (the format is canonical).
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range everyMessage() {
		b, err := appendFrame(nil, &Frame{Kind: KindMsg, From: 1, To: 2, Seq: 9, Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, fr := range []Frame{
		{Kind: KindAck, Seq: 1},
		{Kind: KindHello, Addr: "127.0.0.1:9001"},
		{Kind: KindWelcome, Node: 7, Peers: []PeerAddr{{ID: 0, Addr: "a:1"}}},
		{Kind: KindAddrQuery, Node: 3},
		{Kind: KindAddrReply, Node: 3, Addr: "a:1"},
	} {
		b, err := appendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("non-canonical frame:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// FuzzDecodeDatagram feeds arbitrary bytes through the datagram splitter:
// it must never panic, the frames it passes on must re-encode back to back
// to exactly the prefix it reports consumed, and a datagram it accepts
// whole must be that prefix. It is seeded with every two consecutive
// frames of testdata/frames.golden packed into one datagram.
func FuzzDecodeDatagram(f *testing.F) {
	golden, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		f.Fatal(err)
	}
	var frames [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		_, hx, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(hx)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b)
	}
	for i := 1; i < len(frames); i++ {
		f.Add(append(append([]byte(nil), frames[i-1]...), frames[i]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var re []byte
		n, err := DecodeDatagram(data, func(fr Frame) {
			var eerr error
			if re, eerr = appendFrame(re, &fr); eerr != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", eerr)
			}
		})
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("frames do not re-encode to the consumed prefix:\n in  %x\n out %x", data[:n], re)
		}
		if err == nil && n != len(data) {
			t.Fatalf("accepted datagram of %d bytes after consuming %d", len(data), n)
		}
	})
}

// TestDecodeDatagramStopsAtMalformedFrame packs a good frame, a frame
// with an unknown kind and another good frame: the splitter hands on the
// first, reports the second's error and never reads the third.
func TestDecodeDatagramStopsAtMalformedFrame(t *testing.T) {
	good, err := appendFrame(nil, &Frame{Kind: KindMsg, From: 1, To: 2, Msg: overlay.DataChunk{Seq: 3, Payload: []byte("abc")}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[1] = 99 // kind
	dgram := append(append(append([]byte(nil), good...), bad...), good...)
	var got []Frame
	n, err := DecodeDatagram(dgram, func(f Frame) { got = append(got, f) })
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
	if n != len(good) || len(got) != 1 || got[0].Msg.(overlay.DataChunk).Seq != 3 {
		t.Fatalf("consumed %d bytes, frames %+v; want the first frame only", n, got)
	}
	if _, err := DecodeDatagram(nil, func(Frame) { t.Fatal("frame from an empty datagram") }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty datagram: err = %v, want ErrTruncated", err)
	}
}

// BenchmarkWireRoundTrip tracks the codec cost of a representative control
// message (a loaded ConnResponse) through encode + decode.
func BenchmarkWireRoundTrip(b *testing.B) {
	f := Frame{Kind: KindMsg, From: 5, To: 9, Seq: 1234, Msg: overlay.ConnResponse{
		Token:    99,
		Accepted: true,
		RootPath: []overlay.NodeID{0, 3, 7, 12, 19},
		Adopted:  []overlay.NodeID{4, 5},
		Children: []overlay.ChildInfo{{ID: 4, Dist: 10}, {ID: 5, Dist: 12}, {ID: 6, Dist: 31}},
	}}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = appendFrame(buf[:0], &f)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDataChunk tracks the hot data-plane path: the smallest,
// most frequent frame.
func BenchmarkWireDataChunk(b *testing.B) {
	f := Frame{Kind: KindMsg, From: 5, To: 9, Msg: overlay.DataChunk{Seq: 424242}}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = appendFrame(buf[:0], &f)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeBufferReuse checks that a pooled buffer produces correct
// frames across reuse and that Encode results match appendFrame(nil, &f).
func TestEncodeBufferReuse(t *testing.T) {
	frames := []Frame{
		{Kind: KindMsg, From: 1, To: 2, Seq: 7, Msg: overlay.DataChunk{Seq: 99}},
		{Kind: KindHello, From: 3, To: 4, Addr: "10.0.0.1:9000"},
		{Kind: KindMsg, From: 5, To: 9, Seq: 1234, Msg: overlay.ConnResponse{
			Token:    99,
			Accepted: true,
			RootPath: []overlay.NodeID{0, 3, 7, 12, 19},
			Adopted:  []overlay.NodeID{4, 5},
			Children: []overlay.ChildInfo{{ID: 4, Dist: 10}, {ID: 5, Dist: 12}},
		}},
		{Kind: KindAck, From: 2, To: 1, Seq: 8},
	}
	eb := GetEncodeBuffer()
	defer eb.Release()
	for round := 0; round < 3; round++ {
		for _, f := range frames {
			want, err := appendFrame(nil, &f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eb.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d kind %d: pooled encode differs from appendFrame", round, f.Kind)
			}
		}
	}
}

// BenchmarkWireEncodePooled tracks the transport send path: draw a
// pooled buffer, encode, release. Steady state should not allocate.
func BenchmarkWireEncodePooled(b *testing.B) {
	f := Frame{Kind: KindMsg, From: 5, To: 9, Msg: overlay.DataChunk{Seq: 424242}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb := GetEncodeBuffer()
		if _, err := eb.Encode(f); err != nil {
			b.Fatal(err)
		}
		eb.Release()
	}
}

// TestVocabularyCovered checks every overlay.MsgType against the codec:
// it has a name, everyMessage() holds an instance of it (so the golden
// and the round-trip tests see it), and its zero value round-trips. A new
// message therefore cannot ship without a case in the codec's walk.
func TestVocabularyCovered(t *testing.T) {
	seen := make(map[overlay.MsgType]bool)
	for _, m := range everyMessage() {
		seen[overlay.TypeOf(m)] = true
	}
	for mt := overlay.MsgType(1); mt < overlay.NumTypes; mt++ {
		name := mt.String()
		if name == fmt.Sprintf("MsgType(%d)", mt) {
			t.Errorf("type %d has no name", mt)
		}
		if !seen[mt] {
			t.Errorf("everyMessage() has no %s", name)
		}
		zero := zeroMessage(mt)
		if zero == nil {
			continue
		}
		f := Frame{Kind: KindMsg, Msg: zero}
		enc, err := appendFrame(nil, &f)
		if err != nil {
			t.Errorf("encode zero %s: %v", name, err)
			continue
		}
		if enc[headerLen] != byte(mt) {
			t.Errorf("zero %s encodes type byte %d", name, enc[headerLen])
		}
		got, _, err := DecodeFrame(enc)
		if err != nil || !reflect.DeepEqual(got, f) {
			t.Errorf("zero %s round trip: got %#v, err %v", name, got.Msg, err)
		}
	}
}

// TestEncodeRejectsEmbeddedMessage pins that a type which only embeds an
// overlay message is not that message: it reports the embedded type's
// number, but the codec has no layout for it.
func TestEncodeRejectsEmbeddedMessage(t *testing.T) {
	type wrapped struct{ overlay.Ping }
	if _, err := appendFrame(nil, &Frame{Kind: KindMsg, Msg: wrapped{overlay.Ping{Token: 1}}}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("appendFrame(wrapped Ping) err = %v, want ErrUnknownType", err)
	}
	if _, err := appendFrame(nil, &Frame{Kind: KindMsg}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("appendFrame(nil message) err = %v, want ErrUnknownType", err)
	}
}

// zeroMessage returns the zero value of message type mt, read off the
// instance everyMessage holds (nil when it holds none).
func zeroMessage(mt overlay.MsgType) overlay.Message {
	for _, m := range everyMessage() {
		if overlay.TypeOf(m) == mt {
			return reflect.Zero(reflect.TypeOf(m)).Interface().(overlay.Message)
		}
	}
	return nil
}

// filler builds values from fuzzer bytes, reading zeros once they run out.
type filler struct{ b []byte }

func (f *filler) u64(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v <<= 8
		if len(f.b) > 0 {
			v |= uint64(f.b[0])
			f.b = f.b[1:]
		}
	}
	return v
}

// fill sets every field of v from the fuzzer bytes, by reflection, so it
// needs no list of the messages' fields. Lists get lengths up to the
// codec limit of their kind; ConnKind stays in its two values, because
// the encoder rejects any other.
func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(f.u64(1)&1 == 1)
	case reflect.Int, reflect.Int32, reflect.Int64:
		if v.Type() == reflect.TypeOf(overlay.ConnKind(0)) {
			v.SetInt(int64(f.u64(1) & 1))
			return
		}
		v.SetInt(int64(f.u64(int(v.Type().Size()))))
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(f.u64(int(v.Type().Size())))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(f.u64(8)))
	case reflect.String:
		v.SetString(string(make([]byte, f.u64(1))))
	case reflect.Pointer:
		if f.u64(1)&1 == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		}
	case reflect.Slice:
		limit := MaxList
		switch v.Type() {
		case reflect.TypeOf([]byte(nil)):
			limit = MaxChunkPayload
		case reflect.TypeOf([]overlay.SeqRange(nil)):
			limit = MaxNackRanges
		}
		n := int(f.u64(2)) % (limit + 1)
		if n == 0 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	default:
		panic("filler: no rule for " + v.Type().String())
	}
}

// FuzzRoundTrip builds a message of the type the first fuzzer byte names,
// fills its fields from the rest, and checks the codec on it: encoding
// succeeds or fails only on a bound, and encode(decode(encode(m))) equals
// encode(m). It compares bytes, not values, so NaN distances and ints
// past 32 bits (which the wire truncates) hold it too.
func FuzzRoundTrip(f *testing.F) {
	for mt := 1; mt < int(overlay.NumTypes); mt++ {
		f.Add([]byte{byte(mt), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mt := overlay.MsgType(1 + int(data[0])%(int(overlay.NumTypes)-1))
		fl := &filler{b: data[1:]}
		v := reflect.New(reflect.TypeOf(zeroMessage(mt))).Elem()
		fl.fill(v)
		fr := Frame{Kind: KindMsg, From: overlay.NodeID(int32(fl.u64(4))), To: overlay.NodeID(int32(fl.u64(4))),
			Seq: uint32(fl.u64(4)), Msg: v.Interface().(overlay.Message)}
		enc, err := appendFrame(nil, &fr)
		if err != nil {
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("encode %s: %v", mt, err)
			}
			return
		}
		dec, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode %s: consumed %d of %d, %v", mt, n, len(enc), err)
		}
		re, err := appendFrame(nil, &dec)
		if err != nil {
			t.Fatalf("re-encode %s: %v", mt, err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("%s does not round-trip:\n in  %x\n out %x", mt, enc, re)
		}
	})
}
