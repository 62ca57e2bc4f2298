package vdm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllowed lists the identifiers under internal/ and cmd/ (and the
// root package) that stay although no non-test file uses them, each with
// its reason. An entry is an identifier's key as TestNoDeadCode prints it
// (pkg.Name, or pkg.Type.Method for a method); an entry that names a type
// covers its methods too, and an entry that names a package covers the
// package's exported identifiers. An entry that covers nothing the scan
// reports fails the test, so the list cannot outlive its reasons.
var deadcodeAllowed = map[string]string{
	"vdm":                          "the module's public API: the README quick start and example_test.go drive it; no command imports it",
	"vdm/internal/golden":          "test support; only _test.go files import it",
	"vdm/internal/live.Cluster":    "the loopback test cluster that live's tests and the root live benchmarks (bench_test.go) boot and stream through",
	"vdm/internal/live.NewCluster": "boots a live.Cluster (see above)",
	"vdm/internal/obs.MemSink":     "the in-memory trace sink that tests in live, transport and obs and the root benchmarks read events back from",
}

// TestNoDeadCode fails on every package-level func, type, const or var,
// and every method, declared under internal/, cmd/ or in the root package
// that no non-test file of the module or of benchmark/ uses, unless
// deadcodeAllowed lists it. A use inside the identifier's own
// declaration (a recursive call, a method's receiver) does not count. An
// interface method counts as used where production code calls it; a
// concrete method counts as used where it is called directly, or where
// it implements an interface method that is used or that an interface
// from outside the module declares (String, Error, ServeHTTP, ...).
func TestNoDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs := loadProduction(t)
	unused := deadIdentifiers(pkgs)

	covered := map[string]bool{}
	var report []string
	for _, id := range unused {
		entry := allowEntry(id.key)
		if entry == "" {
			report = append(report, fmt.Sprintf("%s (%s)", id.key, id.pos))
			continue
		}
		covered[entry] = true
	}
	for entry := range deadcodeAllowed {
		if !covered[entry] {
			report = append(report, fmt.Sprintf("%s: allow-listed, but the scan reports nothing under it; delete the entry", entry))
		}
	}
	if len(report) > 0 {
		sort.Strings(report)
		t.Errorf("%d findings: identifiers without a non-test use (delete each, or allow-list it in deadcodeAllowed with a reason) and stale entries:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// allowEntry returns the deadcodeAllowed entry that covers key, or "".
func allowEntry(key string) string {
	for entry := range deadcodeAllowed {
		switch {
		case key == entry, strings.HasPrefix(key, entry+"."):
			if !strings.Contains(entry, ".") {
				// A package entry: exported identifiers only.
				for _, part := range strings.Split(key[len(entry)+1:], ".") {
					if !token.IsExported(part) {
						return ""
					}
				}
			}
			return entry
		}
	}
	return ""
}

// loadedPackage is one type-checked package of production code: its
// build-tag-correct non-test files, parsed with comments, and the
// type-checker's record of every definition, use and expression type.
type loadedPackage struct {
	Path  string
	Fset  *token.FileSet // shared by every loaded package
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loadProduction type-checks, from source, every package of the root
// module and of the benchmark/ module with the files `go list` selects
// for this platform; standard-library imports come from the compiler's
// export data. The packages come back in dependency order and share one
// FileSet (their positions are comparable). Test files are not loaded.
func loadProduction(t *testing.T) []*loadedPackage {
	t.Helper()
	type listed struct {
		ImportPath string
		Dir        string
		Export     string
		Standard   bool
		GoFiles    []string
		CgoFiles   []string
		Error      *struct{ Err string }
	}
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	var order []*listed
	seen := map[string]*listed{}
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command(goCmd, "list", "-e", "-json", "-deps", "-export", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			p := new(listed)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("go list in %s: %v", dir, err)
			}
			if p.Error != nil {
				t.Fatalf("go list: %s: %s", p.ImportPath, p.Error.Err)
			}
			if seen[p.ImportPath] == nil {
				seen[p.ImportPath] = p
				order = append(order, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p := seen[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*loadedPackage
	for _, p := range order {
		if p.Standard {
			continue
		}
		lp := &loadedPackage{Path: p.ImportPath, Fset: fset, Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range append(p.GoFiles, p.CgoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			lp.Files = append(lp.Files, f)
		}
		tp, err := conf.Check(p.ImportPath, fset, lp.Files, lp.Info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		lp.Types = tp
		checked[p.ImportPath] = tp
		pkgs = append(pkgs, lp)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// deadIdentifier is one declaration that no production code uses.
type deadIdentifier struct {
	key string // pkg.Name, or pkg.Type.Method
	pos string // file:line, relative to the module root
}

// inDeadcodeScope reports whether the identifiers a package declares are
// checked: the root package and everything under internal/ and cmd/ (not
// benchmark/, which only uses them).
func inDeadcodeScope(path string) bool {
	return path == "vdm" || strings.HasPrefix(path, "vdm/internal/") || strings.HasPrefix(path, "vdm/cmd/")
}

// deadIdentifiers returns, sorted by key, the declarations in scope that
// no production file uses.
func deadIdentifiers(pkgs []*loadedPackage) []deadIdentifier {
	type span struct{ from, to token.Pos }
	type candidate struct {
		key  string
		pos  token.Pos
		self []span // uses inside these ranges do not count
	}
	cands := map[types.Object]*candidate{}
	typeSpans := map[*types.TypeName][]span{} // a type's methods count as self
	var named []*types.Named                  // concrete types declared in scope

	for _, p := range pkgs {
		if !inDeadcodeScope(p.Path) {
			continue
		}
		add := func(obj types.Object, key string, s span) {
			cands[obj] = &candidate{key: p.Path + "." + key, pos: obj.Pos(), self: []span{s}}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					s := span{d.Pos(), d.End()}
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil {
						if d.Name.Name != "init" && d.Name.Name != "main" && d.Name.Name != "_" {
							add(fn, fn.Name(), s)
						}
						continue
					}
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					tn := rt.(*types.Named).Obj()
					add(fn, tn.Name()+"."+fn.Name(), s)
					typeSpans[tn] = append(typeSpans[tn], s)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						s := span{spec.Pos(), spec.End()}
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							tn := p.Info.Defs[sp.Name].(*types.TypeName)
							add(tn, tn.Name(), s)
							if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
								for i := 0; i < iface.NumExplicitMethods(); i++ {
									m := iface.ExplicitMethod(i)
									add(m, tn.Name()+"."+m.Name(), s)
								}
							} else if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil && !tn.IsAlias() {
								named = append(named, n)
							}
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								if id.Name != "_" {
									add(p.Info.Defs[id], id.Name, s)
								}
							}
						}
					}
				}
			}
		}
	}
	for tn, spans := range typeSpans {
		if c := cands[tn]; c != nil {
			c.self = append(c.self, spans...)
		}
	}

	used := map[types.Object]bool{}
	usedIfaces := map[*types.Interface]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			c := cands[obj]
			if c == nil || slices.ContainsFunc(c.self, func(s span) bool { return s.from <= id.Pos() && id.Pos() < s.to }) {
				continue
			}
			used[obj] = true
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
						usedIfaces[iface] = true
					}
				}
			}
		}
	}

	// A concrete method is also used when it implements an interface
	// method production code calls, or any method of an interface
	// declared outside the module (String, Error, ServeHTTP, ...).
	type ifaceUse struct {
		iface    *types.Interface
		external bool
	}
	var ifaces []ifaceUse
	for iface := range usedIfaces {
		ifaces = append(ifaces, ifaceUse{iface, false})
	}
	ifaces = append(ifaces, ifaceUse{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true})
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, imp := range tp.Imports() {
			walk(imp)
		}
		if tp.Path() == "vdm" || strings.HasPrefix(tp.Path(), "vdm/") {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() != nil {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, ifaceUse{iface, true})
			}
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, iu := range ifaces {
			if !types.Implements(ptr, iu.iface) {
				continue
			}
			for i := 0; i < iu.iface.NumMethods(); i++ {
				m := iu.iface.Method(i)
				if !iu.external && !used[m] {
					continue
				}
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[sel.Obj()] = true
				}
			}
		}
	}

	var dead []deadIdentifier
	root, _ := os.Getwd()
	for obj, c := range cands {
		if used[obj] {
			continue
		}
		pos := pkgs[0].Fset.Position(c.pos)
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		dead = append(dead, deadIdentifier{c.key, fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead
}
