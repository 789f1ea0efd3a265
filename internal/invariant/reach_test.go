package invariant_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"scan/internal/invariant/load"
)

// reachGolden lists the internal/ functions that no program reaches but
// that stay on purpose, one per line: the function's types.Func full name,
// then the reason it is kept.
const reachGolden = "testdata/reach.golden"

// libraryCalled names methods the standard library calls through interfaces
// the exported-interface scan cannot see: the predeclared error's Error, and
// Unwrap, which http.ResponseController and errors call through unexported
// interfaces. Add a name here when a method the library calls that way is
// reported as unreached.
var libraryCalled = []string{"Error", "Unwrap"}

// TestReachability is the dead-code ratchet: every function declared under
// internal/ must be reachable from a program — a main in cmd/, examples/ or
// bench/, an init, or a package-level initializer — or be named, with a
// reason, in testdata/reach.golden. A function only tests reach is a second
// copy of a live mechanism or a feature nobody uses; delete it rather than
// keep it alive through its tests.
//
// The walk is conservative. A function is reached when a reached body
// (closures included) names it, as a call or as a value. A method called
// through an interface reaches every method of that name; methods of the
// standard library's exported interfaces (String, Error, Write, ServeHTTP,
// MarshalJSON, ...) count as reached, since the library calls them.
func TestReachability(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	g := newReachGraph()
	// bench/ is a nested module over this one, so it loads separately;
	// functions are keyed by full name, which both loads agree on.
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		pkgs, err := load.Packages(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, p := range pkgs {
			g.addPackage(p)
		}
	}
	reached := g.walk()

	keeps := readReachGolden(t, reachGolden)
	var dead []string
	deadLines := 0
	for id, fn := range g.funcs {
		if !fn.internal || reached[id] {
			continue
		}
		if _, ok := keeps[id]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s:%d: %s (%d lines)", fn.file, fn.line, id, fn.lines))
		deadLines += fn.lines
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("reached only from tests: %s", d)
	}
	if len(dead) > 0 {
		t.Logf("%d function(s), %d lines, are reached by no program; delete them, or add them to %s with the reason they stay", len(dead), deadLines, reachGolden)
	}
	for id := range keeps {
		fn, ok := g.funcs[id]
		switch {
		case !ok || !fn.internal:
			t.Errorf("%s: %s no longer exists under internal/; remove its line", reachGolden, id)
		case reached[id]:
			t.Errorf("%s: %s is now reached from a program; remove its line", reachGolden, id)
		}
	}
}

// reachFunc is one declared function, or the pseudo-function standing for
// a package's package-level variable initializers.
type reachFunc struct {
	file     string
	line     int
	lines    int
	internal bool
	refs     []string // functions named in the body
	dynamic  []string // interface methods named in the body
}

type reachGraph struct {
	funcs    map[string]*reachFunc
	roots    []string
	byName   map[string][]string // concrete method name -> method ids
	external map[string]bool     // method names of library interfaces
	seen     map[*types.Package]bool
}

func newReachGraph() *reachGraph {
	g := &reachGraph{
		funcs:    make(map[string]*reachFunc),
		byName:   make(map[string][]string),
		external: make(map[string]bool),
		seen:     make(map[*types.Package]bool),
	}
	for _, name := range libraryCalled {
		g.external[name] = true
	}
	return g
}

// funcID keys a function by its generic origin's full name, which is the
// same whether the function was typechecked from source or imported.
func funcID(fn *types.Func) string { return fn.Origin().FullName() }

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

func (g *reachGraph) addPackage(p *load.Package) {
	internal := strings.HasPrefix(p.Path, "scan/internal/")
	initializers := &reachFunc{}
	g.funcs[p.Path+".<initializers>"] = initializers
	g.roots = append(g.roots, p.Path+".<initializers>")
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := p.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				pos := p.Fset.Position(d.Pos())
				rf := &reachFunc{
					file:     filepath.Base(pos.Filename),
					line:     pos.Line,
					lines:    p.Fset.Position(d.End()).Line - pos.Line + 1,
					internal: internal,
				}
				g.collect(p, d, rf)
				id := funcID(fn)
				if d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && p.Pkg.Name() == "main")) {
					// Several inits may share a package; each is its own root.
					id = fmt.Sprintf("%s.%s@%s:%d", p.Path, d.Name.Name, rf.file, rf.line)
					g.roots = append(g.roots, id)
				} else if d.Recv != nil {
					g.byName[d.Name.Name] = append(g.byName[d.Name.Name], id)
				}
				g.funcs[id] = rf
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					g.collect(p, d, initializers)
				}
			}
		}
	}
	g.scanLibraryInterfaces(p.Pkg)
}

// collect records every function the node names, and every interface
// method it can call: those named directly, and all methods of any
// interface type it names or handles a value of (which also keeps a sealed
// interface's marker methods).
func (g *reachGraph) collect(p *load.Package, n ast.Node, rf *reachFunc) {
	ast.Inspect(n, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t := p.Info.TypeOf(expr); t != nil {
			if it, ok := t.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					rf.dynamic = append(rf.dynamic, it.Method(i).Name())
				}
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if isInterfaceMethod(fn) {
			rf.dynamic = append(rf.dynamic, fn.Name())
		} else {
			rf.refs = append(rf.refs, funcID(fn))
		}
		return true
	})
}

// scanLibraryInterfaces records the method names of every exported
// interface in the packages pkg imports from outside this module.
func (g *reachGraph) scanLibraryInterfaces(pkg *types.Package) {
	for _, imp := range pkg.Imports() {
		if g.seen[imp] {
			continue
		}
		g.seen[imp] = true
		if imp.Path() == "scan" || strings.HasPrefix(imp.Path(), "scan/") {
			continue
		}
		scope := imp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					g.external[iface.Method(i).Name()] = true
				}
			}
		}
		g.scanLibraryInterfaces(imp)
	}
}

// walk returns every function reachable from the roots.
func (g *reachGraph) walk() map[string]bool {
	reached := make(map[string]bool)
	dynamic := make(map[string]bool)
	work := append([]string(nil), g.roots...)
	reachName := func(name string) {
		if dynamic[name] {
			return
		}
		dynamic[name] = true
		work = append(work, g.byName[name]...)
	}
	for name := range g.external {
		reachName(name)
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[id] {
			continue
		}
		reached[id] = true
		rf, ok := g.funcs[id]
		if !ok {
			continue // a library function
		}
		work = append(work, rf.refs...)
		for _, name := range rf.dynamic {
			reachName(name)
		}
	}
	return reached
}

// readReachGolden parses the keep list: "<full name> <reason>" per line,
// with blank lines and #-comments ignored.
func readReachGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keeps := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, n, id)
		}
		if _, dup := keeps[id]; dup {
			t.Errorf("%s:%d: %s listed twice", path, n, id)
		}
		keeps[id] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keeps
}
