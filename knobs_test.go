package vdm

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobTable makes TestNoTestOnlyKnobs print the knob table `make knobs`
// shows: one line per config struct and per command, then the total.
var knobTable = flag.Bool("knobs", false, "print the knob table")

// knobsAllowed lists the config-struct fields that stay although no
// non-test file sets them, each with its reason. An entry is a field's
// key as TestNoTestOnlyKnobs prints it (pkg.Type.Field); an entry that
// names a type covers its fields, and one that names a package covers
// every config struct in it. An entry that covers nothing the scan
// reports fails the test, so the list cannot outlive its reasons.
var knobsAllowed = map[string]string{
	"vdm":                                   "the module's public API: the README quick start and example_test.go set its fields; no command imports it",
	"vdm/internal/live.ClusterConfig":       "the loopback test harness: live's tests and the root live benchmarks set its fields",
	"vdm/internal/sim.Config.CtrlLossProb":  "lets a test lose control messages, a behaviour no program runs",
	"vdm/internal/sim.Config.StatusHandler": "lets a test consume the simulated status reports, which no program reads",
	"vdm/internal/sim.Config.StatusPeriodS": "lets a test turn on the simulated status reports, which no program reads",
	"vdm/internal/sim.Config.Validate":      "lets a test run the per-event tree invariant checks, which no program runs",
}

// TestNoTestOnlyKnobs fails on every field of a config struct (a type
// named *Config or *Options declared at package level under internal/ or
// in the root package) that no non-test file of the module or of
// benchmark/ sets, unless knobsAllowed lists it. A set is a composite-
// literal key (or a positional element), an assignment of any form
// (tuple assignments, op-assignments and ++/-- included) or taking the
// field's address; a write inside the type's own WithDefaults or
// withDefaults method does not count. A value only tests choose belongs
// in a constant beside its user, so that the tests run what ships.
func TestNoTestOnlyKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs := loadProduction(t)
	structs := knobStructs(pkgs)
	if *knobTable {
		printKnobTable(structs, commandFlags(pkgs))
	}

	covered := map[string]bool{}
	var report []string
	for _, key := range unsetKnobs(pkgs, structs) {
		entry := knobAllowEntry(key)
		if entry == "" {
			report = append(report, key)
			continue
		}
		covered[entry] = true
	}
	for entry := range knobsAllowed {
		if !covered[entry] {
			report = append(report, fmt.Sprintf("%s: allow-listed, but the scan reports nothing under it; delete the entry", entry))
		}
	}
	if len(report) > 0 {
		sort.Strings(report)
		t.Errorf("%d findings: config fields no non-test file sets (make each a constant beside its user, or allow-list it in knobsAllowed with a reason) and stale entries:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// knobAllowEntry returns the knobsAllowed entry that covers key, or "".
func knobAllowEntry(key string) string {
	for entry := range knobsAllowed {
		if key == entry || strings.HasPrefix(key, entry+".") {
			return entry
		}
	}
	return ""
}

// knobStruct is one config struct and its fields, in declaration order.
type knobStruct struct {
	key    string // pkg.Type
	file   string // declaring file, relative to the module root
	pos    token.Pos
	named  *types.Named
	fields []*types.Var
}

// knobStructs returns the config structs, sorted by file and position.
func knobStructs(pkgs []*loadedPackage) []knobStruct {
	root, _ := os.Getwd()
	var out []knobStruct
	for _, p := range pkgs {
		if p.Path != "vdm" && !strings.HasPrefix(p.Path, "vdm/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			ks := knobStruct{key: p.Path + "." + name, pos: tn.Pos(), named: tn.Type().(*types.Named)}
			ks.file = p.Fset.Position(tn.Pos()).Filename
			if rel, err := filepath.Rel(root, ks.file); err == nil {
				ks.file = rel
			}
			for i := 0; i < st.NumFields(); i++ {
				ks.fields = append(ks.fields, st.Field(i))
			}
			out = append(out, ks)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].pos < out[j].pos
	})
	return out
}

// flagDefiners are the flag package's functions (and *flag.FlagSet's
// methods) that each declare one flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// commandFlags returns, for each command under cmd/ in path order, how
// many flags its non-test files declare.
func commandFlags(pkgs []*loadedPackage) []knobCount {
	var out []knobCount
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "vdm/cmd/") {
			continue
		}
		n := 0
		for _, f := range p.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
					fn.Pkg().Path() == "flag" && flagDefiners[fn.Name()] {
					n++
				}
				return true
			})
		}
		out = append(out, knobCount{strings.TrimPrefix(p.Path, "vdm/"), n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type knobCount struct {
	name string
	n    int
}

// printKnobTable writes the table `make knobs` shows.
func printKnobTable(structs []knobStruct, cmds []knobCount) {
	total := 0
	for _, ks := range structs {
		fmt.Printf("%-44s %3d fields\n", ks.file+":"+ks.named.Obj().Name(), len(ks.fields))
		total += len(ks.fields)
	}
	for _, c := range cmds {
		fmt.Printf("%-44s %3d flags\n", c.name, c.n)
		total += c.n
	}
	fmt.Printf("%-44s %3d\n", "total", total)
}

// unsetKnobs returns, sorted, the keys (pkg.Type.Field) of the config
// fields that no production file sets.
func unsetKnobs(pkgs []*loadedPackage, structs []knobStruct) []string {
	owner := map[*types.Var]*knobStruct{}
	for i := range structs {
		for _, f := range structs[i].fields {
			owner[f] = &structs[i]
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			var defaults *types.Named // the receiver while inside a WithDefaults method
			mark := func(obj types.Object) {
				v, ok := obj.(*types.Var)
				if !ok {
					return
				}
				v = v.Origin()
				if ks := owner[v]; ks != nil && ks.named != defaults {
					set[v] = true
				}
			}
			markExpr := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					mark(p.Info.Uses[sel.Sel])
				}
			}
			for _, decl := range f.Decls {
				defaults = nil
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil &&
					(fd.Name.Name == "WithDefaults" || fd.Name.Name == "withDefaults") {
					rt := p.Info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					defaults, _ = rt.(*types.Named)
				}
				ast.Inspect(decl, func(node ast.Node) bool {
					switch n := node.(type) {
					case *ast.CompositeLit:
						typ := p.Info.Types[n].Type
						if ptr, ok := typ.(*types.Pointer); ok {
							typ = ptr.Elem() // an elided &T in a []*T literal
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									mark(p.Info.Uses[id])
								}
							} else {
								mark(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markExpr(lhs)
						}
					case *ast.IncDecStmt:
						markExpr(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markExpr(n.X)
						}
					}
					return true
				})
			}
		}
	}
	var unset []string
	for _, ks := range structs {
		for _, f := range ks.fields {
			if !set[f] {
				unset = append(unset, ks.key+"."+f.Name())
			}
		}
	}
	sort.Strings(unset)
	return unset
}
