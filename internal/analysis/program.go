package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// This file is the shared cross-package layer under the analyzer suite: a
// type-aware call graph plus one summary per declared function, built once
// per Load and consumed by every analyzer. PR 3's analyzers were
// per-function AST walks; the serving-path invariants PRs 4–7 introduced
// (context propagation, lock ordering, goroutine exits) are cross-function
// properties, so the facts they need — who calls whom, which mutex classes
// a call tree acquires — are extracted here exactly once and memoized.

// Program is the whole loaded module: every target package, plus
// per-function summaries and the call graph over them. Analyzers reach it
// through Pass.Prog.
type Program struct {
	// Dir and Patterns are the loader arguments, retained so the
	// compiler-diagnostics pass (Escapes) can re-drive the go tool over
	// exactly the same package set.
	Dir      string
	Patterns []string
	// Pkgs are the matched packages in stable ImportPath order.
	Pkgs []*Package
	// Funcs maps FuncKey strings to summaries for every function declared
	// in the loaded packages.
	Funcs map[string]*FuncInfo

	lockMemo map[string]map[string]bool

	escOnce sync.Once
	escErr  error
	escapes map[string][]EscapeDiag
}

// FuncInfo is the per-function summary: resolved static call sites plus
// the facts the serving-path analyzers consume.
type FuncInfo struct {
	Key  string
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// CtxParam is the function's first context.Context parameter, or nil.
	CtxParam *types.Var
	// Calls are the statically resolvable call sites, in source order.
	Calls []CallSite
	// Locks are the direct mutex operations, in source order.
	Locks []LockOp
	// Gos are the function's go statements, in source order.
	Gos []*ast.GoStmt
}

// CallSite is one statically resolved call.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func
	// Key is FuncKey(Callee), precomputed for summary lookups.
	Key string
}

// LockOp is one direct mutex operation.
type LockOp struct {
	Call *ast.CallExpr
	// Class names the mutex acquisition class: "pkgpath.Type.field" for a
	// mutex field, "pkgpath.var" for a package-level mutex, or the
	// variable name for a local. Two operations with equal Class strings
	// contend on the same (sharded) mutex domain.
	Class string
	// Op is "Lock", "Unlock", "RLock", or "RUnlock".
	Op string
	// Deferred reports the op appears in a defer statement.
	Deferred bool
}

// Acquires reports whether the op takes the mutex (Lock or RLock).
func (o LockOp) Acquires() bool { return o.Op == "Lock" || o.Op == "RLock" }

// ReleaseOf returns the op name that releases this acquisition.
func (o LockOp) ReleaseOf() string {
	if o.Op == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// FuncKey returns a stable cross-package identity for fn. Source-checked
// packages and gc-export-data imports materialize distinct types.Func
// objects for the same function, so the call graph is keyed by this
// string instead of by object pointer.
func FuncKey(fn *types.Func) string {
	var b strings.Builder
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if n, ok := t.(*types.Named); ok {
			if pkg := fn.Pkg(); pkg != nil {
				b.WriteString(pkg.Path())
			}
			b.WriteString(".(")
			b.WriteString(ptr)
			b.WriteString(n.Obj().Name())
			b.WriteString(").")
			b.WriteString(fn.Name())
			return b.String()
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		b.WriteString(pkg.Path())
		b.WriteString(".")
	}
	b.WriteString(fn.Name())
	return b.String()
}

// InfoFor returns the summary for fn's declaration, or nil when fn was
// not declared in a loaded package (stdlib, indirect, interface method).
func (p *Program) InfoFor(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return p.Funcs[FuncKey(fn)]
}

// InfoForDecl returns the summary for a declaration in pkg.
func (p *Program) InfoForDecl(pkg *Package, decl *ast.FuncDecl) *FuncInfo {
	obj, ok := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return nil
	}
	return p.Funcs[FuncKey(obj)]
}

// buildProgram constructs the summary layer over freshly loaded packages.
func buildProgram(dir string, patterns []string, pkgs []*Package) *Program {
	p := &Program{
		Dir:      dir,
		Patterns: patterns,
		Pkgs:     pkgs,
		Funcs:    make(map[string]*FuncInfo),
		lockMemo: make(map[string]map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				info := summarize(pkg, fn, obj)
				p.Funcs[info.Key] = info
			}
		}
	}
	return p
}

// summarize extracts one function's facts.
func summarize(pkg *Package, decl *ast.FuncDecl, obj *types.Func) *FuncInfo {
	ti := pkg.TypesInfo
	info := &FuncInfo{
		Key:  FuncKey(obj),
		Obj:  obj,
		Decl: decl,
		Pkg:  pkg,
	}
	if sig, ok := obj.Type().(*types.Signature); ok {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if IsContextType(params.At(i).Type()) {
				info.CtxParam = params.At(i)
				break
			}
		}
	}

	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			info.Gos = append(info.Gos, x)
		case *ast.CallExpr:
			callee, _ := CalleeObj(ti, x).(*types.Func)
			if callee != nil {
				info.Calls = append(info.Calls, CallSite{Call: x, Callee: callee, Key: FuncKey(callee)})
				if op, ok := lockOf(ti, x, callee); ok {
					op.Deferred = deferred[x]
					info.Locks = append(info.Locks, op)
				}
			}
		}
		return true
	})
	return info
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// lockOf recognizes sync.Mutex / sync.RWMutex method calls and resolves
// the acquisition class of the receiver.
func lockOf(ti *types.Info, call *ast.CallExpr, callee *types.Func) (LockOp, bool) {
	name := callee.Name()
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return LockOp{}, false
	}
	if callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return LockOp{}, false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return LockOp{}, false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	n, ok := rt.(*types.Named)
	if !ok || (n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex") {
		return LockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	class := lockClass(ti, sel)
	if class == "" {
		return LockOp{}, false
	}
	// Normalize TryLock to its acquiring form for pairing purposes.
	op := strings.TrimPrefix(name, "Try")
	return LockOp{Call: call, Class: class, Op: op}, true
}

// lockClass names the mutex the selector resolves to. For s.mu.Lock() the
// class is the mu field qualified by the owning struct's type; for an
// embedded mutex (s.Lock()) it is the embedded field; for a package-level
// var it is the var's qualified name.
func lockClass(ti *types.Info, sel *ast.SelectorExpr) string {
	// Embedded case: the method selector itself traverses fields.
	if s, ok := ti.Selections[sel]; ok && len(s.Index()) > 1 {
		t := s.Recv()
		var owner string
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			owner = qualify(n.Obj())
		}
		idx := s.Index()
		st, ok := derefStruct(t)
		if !ok {
			return ""
		}
		var field *types.Var
		for _, i := range idx[:len(idx)-1] {
			field = st.Field(i)
			st, ok = derefStruct(field.Type())
			if !ok {
				break
			}
		}
		if field != nil {
			return owner + "." + field.Name()
		}
		return ""
	}
	// Explicit field or variable: resolve the receiver expression x in
	// x.Lock().
	recv := ast.Unparen(sel.X)
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		if f, ok := ti.Uses[x.Sel].(*types.Var); ok && f.IsField() {
			owner := ""
			if tv, ok := ti.Types[x.X]; ok {
				t := tv.Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok {
					owner = qualify(n.Obj())
				}
			}
			return owner + "." + f.Name()
		}
	case *ast.Ident:
		if v, ok := ti.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return v.Name()
		}
	}
	return ""
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func qualify(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// TransitiveLocks returns the set of mutex classes the function acquires,
// directly or through statically resolved callees.
func (p *Program) TransitiveLocks(key string) map[string]bool {
	if memo, ok := p.lockMemo[key]; ok {
		return memo
	}
	info := p.Funcs[key]
	if info == nil {
		return nil
	}
	set := make(map[string]bool)
	p.lockMemo[key] = set
	for _, op := range info.Locks {
		if op.Acquires() {
			set[op.Class] = true
		}
	}
	for _, cs := range info.Calls {
		for c := range p.TransitiveLocks(cs.Key) {
			set[c] = true
		}
	}
	return set
}
