package invariant

import (
	"go/ast"
	"go/token"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// FlushRead pins the telemetry barrier: knowledge.Base buffers run-log
// observations and folds them in batches, and Flush() is the barrier that
// makes every accepted observation queryable. A read path that documents
// flushing semantics — Query, FitStageModel, Export, ExportRDFXML, Len,
// Describe, and any future exported reader — must call Flush() before
// touching the graph, or buffered observations silently vanish from its
// answer.
//
// Mechanical rule, applied to exported methods whose receiver type is
// named Base in a package named knowledge: a method on the flushing-reads
// list, or any exported method that both takes the read lock
// (recv.mu.RLock()) and reads recv.graph, must contain a recv.Flush()
// call positioned before the first RLock and the first graph access.
// Writers (recv.mu.Lock()) and the deliberately unflushed advisory reads —
// the advice path (the materialized cache) and the cost oracle
// (EstimateStageCost / ChainCosts: fold-time accumulators under a leaf
// lock of their own) — touch no graph state and are exempt.
var FlushRead = &analysis.Analyzer{
	Name:     "flushread",
	Doc:      "knowledge.Base flushing readers must call Flush() before touching the graph",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runFlushRead,
}

// flushingReads are the documented flushing read paths, checked by name so
// a refactor cannot silently drop their barrier.
var flushingReads = map[string]bool{
	"Query":         true,
	"FitStageModel": true,
	"Export":        true,
	"ExportRDFXML":  true,
	"Len":           true,
	"Describe":      true,
}

func runFlushRead(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "knowledge" {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !fd.Name.IsExported() || receiverTypeName(fd) != "Base" {
			return
		}
		recv := receiverName(fd)
		if recv == "" {
			return
		}
		flushPos := firstCallPos(fd.Body, recv, "Flush")
		rlockPos := firstMethodCallPos(fd.Body, recv, "RLock")
		graphPos := firstFieldUsePos(fd.Body, recv, "graph")
		mustFlush := flushingReads[fd.Name.Name] || (rlockPos != token.NoPos && graphPos != token.NoPos)
		if !mustFlush {
			return
		}
		if flushPos == token.NoPos {
			pass.Reportf(fd.Pos(), "%s is a flushing read on knowledge.Base but never calls %s.Flush(): buffered observations would be invisible (telemetry barrier)", fd.Name.Name, recv)
			return
		}
		for _, p := range []token.Pos{rlockPos, graphPos} {
			if p != token.NoPos && p < flushPos {
				pass.Reportf(fd.Pos(), "%s touches the graph before calling %s.Flush(): the flush must come first so the read sees every accepted observation (telemetry barrier)", fd.Name.Name, recv)
				return
			}
		}
	})
	return nil, nil
}

// receiverName returns the name of fd's receiver variable, or "".
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// firstCallPos finds the first recv.name(...) call in body.
func firstCallPos(body ast.Node, recv, name string) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv {
			pos = call.Pos()
			return false
		}
		return true
	})
	return pos
}

// firstMethodCallPos finds the first call to a method called name anywhere
// under recv's selector chain (recv.mu.RLock()).
func firstMethodCallPos(body ast.Node, recv, name string) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return true
		}
		if root := rootIdent(sel.X); root != nil && root.Name == recv {
			pos = call.Pos()
			return false
		}
		return true
	})
	return pos
}

// firstFieldUsePos finds the first recv.field use in body, including uses
// as an argument (profilesLocked(b.graph)) or a selector base
// (b.graph.Len()).
func firstFieldUsePos(body ast.Node, recv, field string) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != field {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv {
			pos = sel.Pos()
		}
		return true
	})
	return pos
}
