package wire

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"vdm/internal/overlay"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden")

// TestFramesGolden pins the bytes on the wire: the encoding of one frame
// per everyMessage() entry and per bootstrap kind, one hex line each, in
// testdata/frames.golden. A codec change that moves any byte fails here;
// a deliberate format change bumps Version and regenerates the file with
//
//	go test ./internal/wire -run FramesGolden -update
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
	const path = "testdata/frames.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := bytes.Split(out.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(exp) || !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("frame %d differs from %s:\n got  %.200s\n want %.200s", i, path, got[i], line(exp, i))
			}
		}
		t.Fatalf("%s has %d lines, encoder wrote %d", path, len(exp), len(got))
	}
}

func line(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
