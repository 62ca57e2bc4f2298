package overlay

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"

	"vdm/internal/eventq"
	"vdm/internal/underlay"
)

// everyType holds one value of each message type.
var everyType = []Message{
	Ping{}, Pong{}, InfoRequest{}, InfoResponse{}, ConnRequest{}, ConnResponse{},
	ParentChange{}, ParentChangeAck{}, PathUpdate{}, Detach{}, LeaveNotify{},
	Reassign{}, DataChunk{}, StatusReport{}, DataAck{}, DataNack{}, Parity{},
	Pushback{}, ParentCheck{}, ParentCheckAck{},
}

// TestTypeNameMatchesPercentT walks one value of every message type and
// compares each type's names against what %T prints. The walked types
// are checked against the msgType methods declared in messages.go and
// against the numbers 1 … NumTypes-1, so a new message cannot be added
// without a number and a name.
func TestTypeNameMatchesPercentT(t *testing.T) {
	var listed []string
	numbered := map[MsgType]bool{}
	for _, m := range everyType {
		mt := TypeOf(m)
		want := fmt.Sprintf("%T", m)
		if got := TypeName(m); got != want {
			t.Errorf("TypeName(%s) = %q", want, got)
		}
		if got := "overlay." + mt.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", mt, mt.String(), want)
		}
		if mt < 1 || mt >= NumTypes || numbered[mt] {
			t.Errorf("%s has number %d, outside 1 … %d or taken twice", want, mt, NumTypes-1)
		}
		numbered[mt] = true
		listed = append(listed, want)
	}
	if len(numbered) != int(NumTypes)-1 {
		t.Errorf("%d message types numbered, want %d", len(numbered), NumTypes-1)
	}
	if got := NumTypes.String(); got != fmt.Sprintf("MsgType(%d)", NumTypes) {
		t.Errorf("NumTypes.String() = %q", got)
	}

	f, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "msgType" || fn.Recv == nil {
			continue
		}
		declared = append(declared, "overlay."+fn.Recv.List[0].Type.(*ast.Ident).Name)
	}
	slices.Sort(listed)
	slices.Sort(declared)
	if !slices.Equal(listed, declared) {
		t.Fatalf("vocabulary lists %v\nmessages.go declares %v", listed, declared)
	}
}

// TestIsControlEveryType pins, for every message type, the one rule both
// message carriers take their control/data split from: the data plane's
// vocabulary is data, everything else (Pushback included) is control.
func TestIsControlEveryType(t *testing.T) {
	data := map[MsgType]bool{TypeDataChunk: true, TypeParity: true, TypeDataAck: true, TypeDataNack: true}
	for _, m := range everyType {
		if got, want := IsControl(m), !data[TypeOf(m)]; got != want {
			t.Errorf("IsControl(%s) = %v, want %v", TypeName(m), got, want)
		}
	}
}

// TestNetworkCountsFlowFeedbackAsData sends the reliable data plane's
// messages over a simulated network that drops every control message:
// each one counts as data and arrives, as it does on the live transport.
func TestNetworkCountsFlowFeedbackAsData(t *testing.T) {
	sim := eventq.New()
	net := NewNetwork(sim, underlay.NewStatic(uniformRTT(2, 10)), 1)
	net.CtrlLossProb = 1
	var got []MsgType
	net.Register(1, handlerFunc(func(_ NodeID, m Message) { got = append(got, TypeOf(m)) }))
	sent := []Message{DataChunk{Seq: 1}, Parity{K: 2}, DataAck{Seq: 1}, DataNack{}, Pushback{Depth: 1}}
	for _, m := range sent {
		net.Send(0, 1, m)
	}
	sim.Run(1)
	want := []MsgType{TypeDataChunk, TypeParity, TypeDataAck, TypeDataNack}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v (Pushback dropped as control)", got, want)
	}
	if c := net.Counters().Snapshot(); c.Data != 4 || c.Ctrl != 1 || c.CtrlDrops != 1 {
		t.Fatalf("counters %+v, want 4 data and 1 dropped control", c)
	}
}
