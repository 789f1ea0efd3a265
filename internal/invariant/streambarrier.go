package invariant

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// StreamBarrier pins the engine's local-vs-remote equivalence contract: a
// streaming executor implements Execute *through* its stream
// (runStreamBarrier), so the local pool and fleet workers (which rebuild
// the stream and run only Transform) share one Split/Transform/Gather
// implementation and cannot drift. An executor that declares a Stream
// method but hand-rolls its Execute grows a second, local-only code path —
// the exact silent break the ROADMAP warns about.
//
// Mechanical rule: for every type declaring a StreamingExecutor-shaped
// Stream method (three results, the middle one bool, the last one error),
// its Execute method body must contain a call to runStreamBarrier (or an
// exported RunStreamBarrier). Types with a Stream method and no Execute
// are not executors and are ignored.
var StreamBarrier = &analysis.Analyzer{
	Name:     "streambarrier",
	Doc:      "streaming executors must route Execute through runStreamBarrier",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runStreamBarrierCheck,
}

func runStreamBarrierCheck(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	streaming := make(map[string]bool)         // receiver type name -> declares Stream
	executes := make(map[string]*ast.FuncDecl) // receiver type name -> Execute decl
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		recv := receiverTypeName(fd)
		if recv == "" || fd.Body == nil {
			return
		}
		switch fd.Name.Name {
		case "Stream":
			if streamShaped(pass, fd) {
				streaming[recv] = true
			}
		case "Execute":
			executes[recv] = fd
		}
	})
	for recv := range streaming {
		fd, ok := executes[recv]
		if !ok {
			continue // declares a stream but is not a StageExecutor
		}
		if !callsStreamBarrier(fd.Body) {
			pass.Reportf(fd.Pos(), "%s declares a Stream method but its Execute does not call runStreamBarrier: streaming executors must route Execute through the shared stream barrier (local==remote equivalence)", recv)
		}
	}
	return nil, nil
}

// streamShaped reports whether fd matches StreamingExecutor.Stream:
// func (T) Stream(...) (S, bool, error).
func streamShaped(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	sig, ok := pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
	if !ok || sig.Results().Len() != 3 {
		return false
	}
	mid, ok := sig.Results().At(1).Type().Underlying().(*types.Basic)
	if !ok || mid.Kind() != types.Bool {
		return false
	}
	last, ok := sig.Results().At(2).Type().(*types.Named)
	return ok && last.Obj().Name() == "error" && last.Obj().Pkg() == nil
}

// callsStreamBarrier reports whether body contains a call whose callee is
// named runStreamBarrier or RunStreamBarrier.
func callsStreamBarrier(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if name == "runStreamBarrier" || name == "RunStreamBarrier" {
			found = true
			return false
		}
		return true
	})
	return found
}
