package wire

import (
	"bytes"
	"fmt"
	"testing"

	"vdm/internal/golden"
	"vdm/internal/overlay"
)

// TestFramesGolden pins the bytes on the wire: the encoding of one frame
// per everyMessage() entry and per bootstrap kind, one hex line each, in
// testdata/frames.golden. A codec change that moves any byte fails here;
// a deliberate format change bumps Version and re-records the file with
// `make goldens`.
func TestFramesGolden(t *testing.T) {
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
	for i, m := range everyMessage() {
		frames = append(frames, Frame{Kind: KindMsg, From: overlay.NodeID(i), To: overlay.NodeID(-i), Seq: uint32(i * 7), Msg: m})
	}
	var out bytes.Buffer
	for _, f := range frames {
		b, err := appendFrame(nil, &f)
		if err != nil {
			t.Fatalf("encode %v: %v", f.Kind, err)
		}
		label := f.Kind.String()
		if f.Kind == KindMsg {
			label = fmt.Sprintf("%T", f.Msg)
		}
		fmt.Fprintf(&out, "%s %x\n", label, b)
	}
	golden.Check(t, "testdata/frames.golden", out.Bytes())
}
