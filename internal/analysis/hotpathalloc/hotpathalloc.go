// Package hotpathalloc keeps annotated hot functions allocation-free.
//
// A function whose doc comment carries //boss:hotpath is checked for the
// constructs PR 2 spent its time removing from the per-posting loops —
// every one of them either allocates or defeats the compiler's
// devirtualization/inlining on this code base:
//
//   - sort.Slice / sort.SliceStable / sort.Sort / sort.Stable (closure +
//     interface boxing per call; use an insertion sort over the bounded
//     stream set, see core.rankByBound);
//   - any call into fmt (interface boxing of every operand; outline cold
//     error construction into an unannotated helper);
//   - string concatenation (allocates the result);
//   - function literals (closure environments allocate when captured
//     variables escape);
//   - conversion of a concrete non-pointer-shaped value to an interface
//     type (boxing allocates; pointers, maps, chans, and funcs are
//     pointer-shaped and box for free — arguments to builtin panic are
//     exempt, panicking is off the hot path by definition);
//   - append whose destination originates in the function itself (fresh
//     local, make, nil, or literal) rather than in a parameter, receiver,
//     or package-level scratch — growing caller-owned or pooled scratch
//     amortizes, growing a fresh slice allocates per call.
//
// The origin analysis for append destinations is an intraprocedural
// heuristic: a destination rooted at a local is acceptable when some
// assignment in the function roots it at a parameter, receiver, or
// package-level variable (the `buf := r.scratch[:0]` reslice idiom).
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"boss/internal/analysis"
)

// Analyzer is the hotpathalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocating constructs in functions annotated //boss:hotpath",
	Run:  run,
}

// bannedSortFuncs allocate via closures and sort.Interface boxing.
var bannedSortFuncs = map[string]bool{
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// A //boss:hotpath marker that is not a function's doc comment
		// guards nothing: its function was renamed or refactored away and
		// the code it used to protect is now unchecked.
		for _, pos := range analysis.DanglingMarkers(file, analysis.MarkerHotPath) {
			pass.Reportf(pos, "dangling //boss:hotpath marker: not attached to any function declaration, so nothing is checked; move it onto the hot function's doc comment or delete it")
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.FuncHasMarker(fn, analysis.MarkerHotPath) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "closure allocation in hot path")
			return false // the literal's body is not part of the hot loop
		case *ast.CallExpr:
			checkCall(pass, fn, x)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info, x) {
				pass.Reportf(x.Pos(), "string concatenation allocates in hot path")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(info, x.Lhs[0]) {
				pass.Reportf(x.Pos(), "string concatenation allocates in hot path")
			}
			checkAssignConversions(pass, x)
		case *ast.ReturnStmt:
			checkReturnConversions(pass, fn, x)
		}
		return true
	})
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkCall flags banned callees, interface-boxing arguments, and
// self-allocating appends.
func checkCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo
	obj := analysis.CalleeObj(info, call)

	if b, ok := obj.(*types.Builtin); ok {
		if b.Name() == "append" {
			checkAppend(pass, fn, call)
		}
		return // arguments to panic/print builtins are cold or diagnostic
	}

	if f, ok := obj.(*types.Func); ok && f.Pkg() != nil {
		switch f.Pkg().Path() {
		case "fmt":
			pass.Reportf(call.Pos(), "fmt.%s in hot path (outline cold formatting into an unannotated helper)", f.Name())
			return
		case "sort":
			if bannedSortFuncs[f.Name()] {
				pass.Reportf(call.Pos(), "sort.%s allocates in hot path (use an insertion sort over the bounded set)", f.Name())
				return
			}
		}
	}

	// Explicit conversions: T(x) with T an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(info, tv.Type, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion to interface %s boxes a concrete value in hot path", tv.Type.String())
		}
		return
	}

	// Implicit conversions at call boundaries: concrete arguments passed to
	// interface-typed parameters.
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && boxes(info, pt, arg) {
			pass.Reportf(arg.Pos(), "argument boxes a concrete value into interface %s in hot path", pt.String())
		}
	}
}

// checkAssignConversions flags assignments that box a concrete RHS into an
// interface-typed LHS.
func checkAssignConversions(pass *analysis.Pass, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	info := pass.TypesInfo
	for i, lhs := range as.Lhs {
		lt, ok := info.Types[lhs]
		if !ok || lt.Type == nil {
			continue
		}
		if boxes(info, lt.Type, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(), "assignment boxes a concrete value into interface %s in hot path", lt.Type.String())
		}
	}
}

// checkReturnConversions flags returns that box concrete values into
// interface-typed results.
func checkReturnConversions(pass *analysis.Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	if fn.Type.Results == nil || len(ret.Results) == 0 {
		return
	}
	info := pass.TypesInfo
	var resultTypes []types.Type
	for _, field := range fn.Type.Results.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			return
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, tv.Type)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // return f() forwarding; conversions charged to f
	}
	for i, r := range ret.Results {
		if boxes(info, resultTypes[i], r) {
			pass.Reportf(r.Pos(), "return boxes a concrete value into interface %s in hot path", resultTypes[i].String())
		}
	}
}

// boxes reports whether assigning expr to target performs an allocating
// interface conversion: target is an interface, expr's type is concrete and
// not pointer-shaped, and expr is not the predeclared nil.
func boxes(info *types.Info, target types.Type, expr ast.Expr) bool {
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface:
		return false // interface-to-interface, no boxing
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false // pointer-shaped, boxes without allocating
	}
	return true
}

// checkAppend flags appends whose destination slice originates inside the
// function (fresh allocation per call) rather than in caller- or
// receiver-owned scratch.
func checkAppend(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if origin := originOf(pass, fn, call.Args[0], 0); origin != "" {
		pass.Reportf(call.Pos(), "append grows a slice that originates in this function (%s); append into parameter, receiver, or pooled scratch", origin)
	}
}

// originOf classifies where the slice expression's backing array comes
// from. It returns "" when the origin is external (parameter, receiver,
// package-level scratch, or unknown), or a short description of the
// function-local origin otherwise.
func originOf(pass *analysis.Pass, fn *ast.FuncDecl, e ast.Expr, depth int) string {
	if depth > 10 {
		return ""
	}
	e = ast.Unparen(e)
	info := pass.TypesInfo

	switch x := e.(type) {
	case *ast.CompositeLit:
		return "slice literal"
	case *ast.CallExpr:
		if b, ok := analysis.CalleeObj(info, x).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				return "make"
			case "append":
				return originOf(pass, fn, x.Args[0], depth+1)
			}
		}
		return "" // other call results: origin is the callee's business
	case *ast.SliceExpr:
		return originOf(pass, fn, x.X, depth+1)
	case *ast.Ident:
		if info.Types[e].IsNil() {
			return "nil"
		}
	}

	root := analysis.RootObj(info, e)
	v, ok := root.(*types.Var)
	if !ok {
		return ""
	}
	if v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return "" // package-level scratch
	}
	if isParamOrReceiver(pass, fn, v) {
		return ""
	}
	// v is function-local (or a named result). Acceptable if any assignment
	// in the function roots it at external storage.
	ok = false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch as := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range as.Lhs {
				if analysis.RootObj(info, lhs) != v || i >= len(as.Rhs) {
					continue
				}
				if originOf(pass, fn, as.Rhs[i], depth+1) == "" {
					// Careful: "" also means unknown; but an unknowable
					// origin (another call's result) is the callee's
					// allocation, not this loop's.
					if !isSelfAppend(info, as.Rhs[i], v) {
						ok = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range as.Names {
				if info.Defs[name] != v {
					continue
				}
				if i < len(as.Values) && originOf(pass, fn, as.Values[i], depth+1) == "" {
					ok = true
				}
			}
		}
		return !ok
	})
	if ok {
		return ""
	}
	return "local " + v.Name()
}

// isSelfAppend reports whether e is append(v, ...) — growing v from itself,
// which says nothing about v's origin.
func isSelfAppend(info *types.Info, e ast.Expr, v *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if b, ok := analysis.CalleeObj(info, call).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return analysis.RootObj(info, call.Args[0]) == v
}

// isParamOrReceiver reports whether v is one of fn's parameters or its
// receiver. Named results are deliberately not included: a named result
// starts out nil, so appending to it allocates unless it was first assigned
// from external storage (which the origin analysis detects).
func isParamOrReceiver(pass *analysis.Pass, fn *ast.FuncDecl, v *types.Var) bool {
	info := pass.TypesInfo
	check := func(fields *ast.FieldList) bool {
		if fields == nil {
			return false
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if info.Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return check(fn.Recv) || check(fn.Type.Params)
}
