package overlay

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// TestTypeNameMatchesPercentT walks every message type and compares the
// static name table against what %T prints. The list of types is checked
// against the msg() methods declared in messages.go, so a new message
// cannot be added without this test seeing it.
func TestTypeNameMatchesPercentT(t *testing.T) {
	all := []Message{
		Ping{}, Pong{}, InfoRequest{}, InfoResponse{}, ConnRequest{},
		ConnResponse{}, ParentChange{}, ParentChangeAck{}, PathUpdate{},
		Detach{}, ParentCheck{}, ParentCheckAck{}, Reassign{}, LeaveNotify{},
		DataChunk{}, StatusReport{}, DataAck{}, DataNack{}, Parity{},
		Pushback{},
	}
	var listed []string
	for _, m := range all {
		want := fmt.Sprintf("%T", m)
		if got := TypeName(m); got != want {
			t.Errorf("TypeName(%s) = %q", want, got)
		}
		listed = append(listed, want)
	}

	f, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "msg" || fn.Recv == nil {
			continue
		}
		declared = append(declared, "overlay."+fn.Recv.List[0].Type.(*ast.Ident).Name)
	}
	slices.Sort(listed)
	slices.Sort(declared)
	if !slices.Equal(listed, declared) {
		t.Fatalf("test walks %v\nmessages.go declares %v", listed, declared)
	}
}

// unlisted is a message the name table does not know.
type unlisted struct{ Ping }

func TestTypeNameFallsBackToPercentT(t *testing.T) {
	if got := TypeName(unlisted{}); got != "overlay.unlisted" {
		t.Fatalf("TypeName(unlisted{}) = %q, want the %%T text", got)
	}
}
