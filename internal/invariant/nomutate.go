package invariant

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// NoMutate pins the registry zero-copy invariant: jobs alias the dataset
// store's slices, which is safe only while executors never mutate their
// raw input in place. An executor that writes through an input record
// slice corrupts the single stored copy for every later job (and, on a
// fleet worker's cached context, for a redispatched shard's retry).
//
// Mechanical rule: inside Execute/Transform (the executor entry points,
// matched as in ctxpoll), values derived from the parameters are tracked
// through a small lexical taint lattice — alias (the value shares input
// memory: the parameters themselves, their slice/pointer/interface
// fields, slices recovered by type assertion, element pointers) and copy
// (a struct value copied out of the input, e.g. out := *in, whose
// reference fields still alias input). Flagged operations: assigning
// through an alias lvalue (in.Reads[i] = …, out.Features[i].X = …,
// *p = …), append/copy with an alias destination (spare-capacity writes),
// and passing an alias slice to an in-place sorter (sort.*, slices.*, or
// any Sort-prefixed helper). Rebinding a copy's field to a fresh value
// (out.Variants = make(…)) clears its taint, so the idiomatic
// shallow-copy-then-replace gather stays clean. The analysis is lexical
// (no branch joins) and intraprocedural — deliberate conservatism that
// keeps it quiet on the idioms the repo uses and loud on real writes.
var NoMutate = &analysis.Analyzer{
	Name:     "nomutate",
	Doc:      "executors must not write through their input record slices (registry zero-copy)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runNoMutate,
}

type taint int

const (
	clean  taint = iota
	copied       // struct value copied from input; its reference fields alias input
	alias        // shares memory with the input
)

func runNoMutate(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if !executorScope(pass.TypesInfo, fd) {
			return
		}
		m := &mutChecker{
			pass:  pass,
			fn:    fd.Name.Name,
			vars:  make(map[types.Object]taint),
			paths: make(map[string]taint),
		}
		m.seedParams(fd)
		ast.Inspect(fd.Body, m.visit)
	})
	return nil, nil
}

type mutChecker struct {
	pass  *analysis.Pass
	fn    string
	vars  map[types.Object]taint
	paths map[string]taint // overrides for reassigned copy fields, e.g. "out.Variants"
}

// seedParams marks every reference-typed parameter (except the context) as
// aliasing the input.
func (m *mutChecker) seedParams(fd *ast.FuncDecl) {
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := m.pass.TypesInfo.Defs[name]
			if obj == nil || isContextType(obj.Type()) {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Pointer, *types.Slice, *types.Map, *types.Interface:
				m.vars[obj] = alias
			case *types.Struct:
				m.vars[obj] = copied
			}
		}
	}
}

func (m *mutChecker) visit(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		m.assign(s)
	case *ast.RangeStmt:
		m.rangeVars(s)
	case *ast.IncDecStmt:
		if m.lvalueAliases(s.X) {
			m.report(s.Pos(), "writes through the executor's input (%s)", s.X)
		}
	case *ast.CallExpr:
		m.call(s)
	}
	return true
}

// assign processes one assignment: reports writes through alias lvalues
// and propagates taint (or kills it) for identifier and copy-field LHSes.
func (m *mutChecker) assign(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		if m.lvalueAliases(lhs) {
			m.report(lhs.Pos(), "writes through the executor's input (%s)", lhs)
			continue
		}
		k := clean
		if rhs != nil {
			k = m.valueOf(rhs)
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := m.pass.TypesInfo.ObjectOf(l); obj != nil {
				m.vars[obj] = k
			}
		case *ast.SelectorExpr:
			// A write to a copy's field replaces (or re-taints) that path:
			// out.Variants = make(...) makes later appends through it clean.
			if p := m.pathOf(l); p != "" {
				m.paths[p] = k
			}
		}
	}
}

// rangeVars taints the key/value variables of a range statement.
func (m *mutChecker) rangeVars(s *ast.RangeStmt) {
	src := m.valueOf(s.X)
	if v, ok := s.Value.(*ast.Ident); ok && src != clean {
		if obj := m.pass.TypesInfo.ObjectOf(v); obj != nil {
			m.vars[obj] = elementTaint(src, m.pass.TypesInfo.TypeOf(v))
		}
	}
}

// call flags mutating builtins and in-place sorts applied to input slices.
func (m *mutChecker) call(c *ast.CallExpr) {
	switch fun := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		if (fun.Name == "append" || fun.Name == "copy") && len(c.Args) > 0 && m.valueOf(c.Args[0]) == alias {
			m.report(c.Pos(), "%s on the executor's input slice may write into its backing array (%s)", fun.Name, c.Args[0])
		}
	case *ast.SelectorExpr:
		if !isSorterName(fun.Sel.Name) {
			return
		}
		for _, arg := range c.Args {
			if m.valueOf(arg) == alias {
				m.report(c.Pos(), "sorts the executor's input in place (%s(%s))", fun.Sel.Name, arg)
				return
			}
		}
	}
}

// isSorterName matches stdlib sort/slices entry points and the repo's
// Sort-prefixed helpers, all of which reorder their argument in place.
func isSorterName(name string) bool {
	switch name {
	case "Slice", "SliceStable", "Stable", "Reverse", "Compact", "Delete", "Insert":
		return true
	}
	return strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "sort")
}

// lvalueAliases reports whether writing to e modifies input memory.
func (m *mutChecker) lvalueAliases(e ast.Expr) bool {
	switch l := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return m.valueOf(l.X) == alias
	case *ast.StarExpr:
		return m.valueOf(l.X) == alias
	case *ast.SelectorExpr:
		// Writing x.F: through a pointer or a still-aliasing lvalue chain
		// this reaches input memory; through a materialized copy it does
		// not (the copy's own field is rebound).
		if t := m.pass.TypesInfo.TypeOf(l.X); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return m.valueOf(l.X) == alias
			}
		}
		return m.lvalueAliases(l.X)
	}
	return false
}

// pathOf renders obj.F selector chains rooted at an identifier, e.g.
// "out.Variants"; "" for anything more exotic.
func (m *mutChecker) pathOf(e ast.Expr) string {
	switch u := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := m.pass.TypesInfo.ObjectOf(u); obj != nil {
			return u.Name
		}
	case *ast.SelectorExpr:
		if base := m.pathOf(u.X); base != "" {
			return base + "." + u.Sel.Name
		}
	}
	return ""
}

// valueOf classifies the value of e against the input taint lattice.
func (m *mutChecker) valueOf(e ast.Expr) taint {
	switch u := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := m.pass.TypesInfo.ObjectOf(u); obj != nil {
			return m.vars[obj]
		}
	case *ast.SelectorExpr:
		if p := m.pathOf(u); p != "" {
			if k, ok := m.paths[p]; ok {
				return k
			}
		}
		base := m.valueOf(u.X)
		if base == clean {
			return clean
		}
		return fieldTaint(m.pass.TypesInfo.TypeOf(u))
	case *ast.IndexExpr:
		if base := m.valueOf(u.X); base != clean {
			return elementTaint(base, m.pass.TypesInfo.TypeOf(u))
		}
	case *ast.SliceExpr:
		return m.valueOf(u.X) // reslicing shares the backing array
	case *ast.StarExpr:
		if m.valueOf(u.X) == alias {
			// *p copies on assignment, but its reference fields alias.
			return elementTaint(alias, m.pass.TypesInfo.TypeOf(u))
		}
	case *ast.TypeAssertExpr:
		if m.valueOf(u.X) != clean {
			return elementTaint(alias, m.pass.TypesInfo.TypeOf(u))
		}
	case *ast.UnaryExpr:
		if u.Op.String() == "&" {
			if m.lvalueAliases(u.X) || m.valueOf(u.X) == alias {
				return alias
			}
		}
	}
	return clean
}

// fieldTaint classifies reading a field of a tainted value by the field's
// type: reference types still alias input memory, structs are copies,
// scalars are clean.
func fieldTaint(t types.Type) taint {
	if t == nil {
		return alias
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Chan:
		return alias
	case *types.Struct:
		return copied
	}
	return clean
}

// elementTaint classifies an element (or dereference, or assertion) of a
// tainted container: reference-typed elements alias, struct elements are
// value copies, scalars are clean.
func elementTaint(base taint, t types.Type) taint {
	if base == clean {
		return clean
	}
	if t == nil {
		return alias
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Chan:
		return alias
	case *types.Struct:
		return copied
	}
	return clean
}

// report renders ast.Expr arguments as source text and emits one finding.
func (m *mutChecker) report(pos token.Pos, format string, args ...any) {
	for i, a := range args {
		if e, ok := a.(ast.Expr); ok {
			args[i] = types.ExprString(e)
		}
	}
	m.pass.Reportf(pos, "zero-copy invariant: %s in %s; executors must not mutate input records in place",
		fmt.Sprintf(format, args...), m.fn)
}
