// Package ctxflow enforces context propagation through the serving path
// (core, pool, front): a request's deadline and cancellation must be able
// to reach every blocking operation under it. Four rules:
//
//  1. context.Background() / context.TODO() are banned in the serving
//     packages. A fresh root context severs the caller's deadline. Two
//     shapes are exempt: the nil-guard `if ctx == nil { ctx =
//     context.Background() }` on a context parameter (a public API
//     accepting nil), and functions carrying //boss:ctx-root (deliberate
//     context roots, e.g. the front door's executor daemon, whose
//     deadline discipline lives elsewhere). The waiver is verified: a
//     //boss:ctx-root function that creates no root context is a stale-
//     marker finding.
//
//  2. A function that receives a context must thread it: passing a fresh
//     root context to a callee that accepts one, while holding the
//     caller's ctx, is a drop (subsumed by rule 1 in-scope; reported
//     distinctly so the message names the dropped parameter).
//
//  3. A function that receives a context must not call a context-blind
//     function that has a context-aware sibling: calling m.Search(...)
//     where m.SearchCtx(ctx, ...) exists silently discards the deadline.
//     The sibling convention is NameCtx, matching this repository's API
//     surface (Search/SearchCtx, Run/RunCtx, SearchBatch/SearchBatchCtx).
//
//  4. Unbounded retry loops must observe cancellation: a `for` statement
//     with no condition, inside a function that received a context, must
//     check ctx.Err() or select on ctx.Done() somewhere in its body —
//     otherwise a dead deadline spins the loop (breaker/backoff loops
//     regressing this way survive every happy-path test). A raw time.Sleep
//     is simdeterminism's finding: serving code waits on clock.Clock.Sleep,
//     which selects on ctx.Done().
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"boss/internal/analysis"
)

// ScopePackages are the serving-path packages the analyzer applies to.
var ScopePackages = []string{
	"internal/core",
	"internal/pool",
	"internal/front",
}

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "require context propagation in serving paths: no fresh root contexts, no context-blind siblings, cancellation-aware retry loops",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathHasAny(pass.Pkg.Path(), ScopePackages) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// rootCtxCall reports whether call is context.Background() or
// context.TODO(), returning the function name.
func rootCtxCall(info *types.Info, call *ast.CallExpr) string {
	obj, ok := analysis.CalleeObj(info, call).(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return ""
	}
	if obj.Name() == "Background" || obj.Name() == "TODO" {
		return obj.Name()
	}
	return ""
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	prog := pass.Prog
	var ctxParam *types.Var
	if fi := prog.InfoForDecl(pass.P, fn); fi != nil {
		ctxParam = fi.CtxParam
	}
	waived := analysis.FuncHasMarker(fn, analysis.MarkerCtxRoot)
	allowed := nilGuardedRoots(info, fn.Body)

	rooted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name := rootCtxCall(info, x); name != "" {
				rooted = true
				if !waived && !allowed[x] {
					pass.Reportf(x.Pos(), "context.%s severs the caller's deadline in a serving path (thread the request context, or mark a deliberate root with //boss:ctx-root)", name)
				}
				return true
			}
			if ctxParam != nil {
				checkSibling(pass, x)
			}
		case *ast.ForStmt:
			if ctxParam != nil && x.Cond == nil {
				checkRetryLoop(pass, fn, x)
			}
		}
		return true
	})
	if waived && !rooted {
		pass.Reportf(fn.Pos(), "stale //boss:ctx-root marker: %s creates no root context", fn.Name.Name)
	}
}

// nilGuardedRoots collects Background/TODO calls that implement the
// accepted nil-guard shape: `if ctx == nil { ctx = context.Background() }`
// where ctx is a context-typed variable.
func nilGuardedRoots(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	allowed := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		v, nilE := ast.Unparen(cond.X), ast.Unparen(cond.Y)
		if tv, ok := info.Types[v]; !ok || !analysis.IsContextType(tv.Type) {
			v, nilE = nilE, v
		}
		tv, ok := info.Types[v]
		if !ok || !analysis.IsContextType(tv.Type) {
			return true
		}
		if ntv, ok := info.Types[nilE]; !ok || !ntv.IsNil() {
			return true
		}
		guarded := analysis.RootObj(info, v)
		for _, s := range ifs.Body.List {
			as, ok := s.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			if analysis.RootObj(info, as.Lhs[0]) != guarded || guarded == nil {
				continue
			}
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && rootCtxCall(info, call) != "" {
				allowed[call] = true
			}
		}
		return true
	})
	return allowed
}

// checkSibling flags calls to context-blind functions whose NameCtx
// sibling exists and accepts a context.
func checkSibling(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	obj, ok := analysis.CalleeObj(info, call).(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || hasCtxParam(sig) {
		return
	}
	sibName := obj.Name() + "Ctx"
	var sib types.Object
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		sibObj, _, _ := types.LookupFieldOrMethod(rt, true, obj.Pkg(), sibName)
		sib = sibObj
	} else {
		sib = obj.Pkg().Scope().Lookup(sibName)
	}
	sfn, ok := sib.(*types.Func)
	if !ok {
		return
	}
	ssig, ok := sfn.Type().(*types.Signature)
	if !ok || !hasCtxParam(ssig) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s drops the caller's context: context-aware sibling %s exists", obj.Name(), sibName)
}

func hasCtxParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if analysis.IsContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// checkRetryLoop requires an unbounded loop in a context-receiving
// function to observe cancellation in its body.
func checkRetryLoop(pass *analysis.Pass, fn *ast.FuncDecl, loop *ast.ForStmt) {
	info := pass.TypesInfo
	observes := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if observes {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
			return true
		}
		if tv, ok := info.Types[sel.X]; ok && analysis.IsContextType(tv.Type) {
			observes = true
		}
		return true
	})
	if !observes {
		pass.Reportf(loop.Pos(), "unbounded loop in %s cannot observe cancellation: check ctx.Err() or select on ctx.Done() each iteration", fn.Name.Name)
	}
}
