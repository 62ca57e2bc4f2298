package overlay

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// TestTypeNameMatchesPercentT walks the vocabulary and compares each
// type's names against what %T prints. The walked types are checked
// against the msgType methods declared in messages.go, so a new message
// cannot be added without a number, a name and a zero value.
func TestTypeNameMatchesPercentT(t *testing.T) {
	var listed []string
	for mt := MsgType(1); mt < NumTypes; mt++ {
		m := mt.Zero()
		if m == nil {
			t.Fatalf("%v has no zero value", mt)
		}
		want := fmt.Sprintf("%T", m)
		if got := TypeName(m); got != want {
			t.Errorf("TypeName(%s) = %q", want, got)
		}
		if got := "overlay." + mt.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", mt, mt.String(), want)
		}
		if got := TypeOf(m); got != mt {
			t.Errorf("TypeOf(%s) = %d, want %d", want, got, mt)
		}
		listed = append(listed, want)
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
