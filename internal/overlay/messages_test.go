package overlay

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
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
