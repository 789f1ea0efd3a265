// Package invariant is scanvet's analyzer suite: four go/analysis passes
// that mechanically enforce the platform's carry-forward invariants (see
// ROADMAP.md and docs/ANALYSIS.md), so the contracts that keep
// cancellation prompt, the *Locked convention honest, telemetry visible
// and the registry zero-copy survive refactors without relying on prose.
// (Local==remote equivalence needs no analyzer: the engine drives every
// stage stream, so no executor can own a second execution path.)
//
// The analyzers are deliberately per-package and intraprocedural — no
// facts, no cross-package flow — which keeps them fast, deterministic and
// runnable both from cmd/scanvet and as a plain `go test` over the repo's
// own packages (selfcheck_test.go, the doccheck pattern). Each analyzer
// documents the exact mechanical rule it checks and the invariant that
// rule pins; the rules are necessarily conservative approximations, tuned
// so the repo at HEAD is clean and the seeded violations in testdata fire.
package invariant

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Suite returns the full analyzer suite in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CtxPoll,
		LockedCall,
		NoMutate,
		FlushRead,
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// executorScope reports whether fd is an executor entry point the loop and
// mutation rules apply to: a function or method named Execute or Transform
// whose first parameter is a context.Context. This is the shape shared by
// workflow.StageExecutor.Execute and workflow.StageStream.Transform (and
// their testdata stand-ins); matching structurally keeps the analyzers
// usable on any package without importing the workflow types.
func executorScope(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Execute" && fd.Name.Name != "Transform" {
		return false
	}
	if fd.Body == nil || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Type.Params.List[0].Type)
	return t != nil && isContextType(t)
}

// receiverTypeName returns the name of fd's receiver base type, or "".
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr: // generic receiver
			t = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}

// rootIdent unwinds a selector/index/call-free expression chain to its
// base identifier: s.mu.Lock -> s, in.Data.([]T) -> in. Returns nil when
// the chain is rooted elsewhere (a call result, a literal ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch u := e.(type) {
		case *ast.Ident:
			return u
		case *ast.SelectorExpr:
			e = u.X
		case *ast.IndexExpr:
			e = u.X
		case *ast.SliceExpr:
			e = u.X
		case *ast.StarExpr:
			e = u.X
		case *ast.ParenExpr:
			e = u.X
		case *ast.TypeAssertExpr:
			e = u.X
		default:
			return nil
		}
	}
}
