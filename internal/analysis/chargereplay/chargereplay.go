// Package chargereplay statically enforces the cache's charge-replay
// invariant (DESIGN.md: the decoded-block cache must not change modeled
// figures): in any function that both probes the decoded-block cache
// (cache.Get) and publishes to it (cache.Publish / PublishBytes), the
// cache-hit arm must charge exactly the same set of mem.Category values
// as the cold (miss) arm, and must replay the decode cycles recorded at
// publish time (a call to the entry's Cycles method).
//
// Until this analyzer, the invariant was enforced only dynamically — by
// tests asserting fig13/fig14/fig15/table2 byte-identity over the paths a
// test corpus happens to exercise. A charge added to the cold path but
// not the hit arm (or vice versa) off those paths would silently skew
// modeled figures as the hit rate moves. This check closes that loophole
// at analysis time.
//
// Mechanically, the analyzer classifies every statement of a qualifying
// function as shared, hit-only, or miss-only by tracking branches whose
// condition tests an entry variable (a value assigned from cache.Get)
// against nil; an `if ent != nil { ... return }` arm flips the remainder
// of its enclosing block to miss-only, matching the early-return shape
// the serving code uses. Charges are counted through the call graph: a
// call to a helper counts the helper's transitive mem.Category set, so
// publish and replay may live in different functions (or files) and the
// comparison still sees through them.
package chargereplay

import (
	"go/ast"
	"go/token"
	"go/types"

	"boss/internal/analysis"
)

// Analyzer is the chargereplay check.
var Analyzer = &analysis.Analyzer{
	Name: "chargereplay",
	Doc:  "require cache-hit arms to charge the same mem.Category set as their cold path and to replay recorded decode cycles",
	Run:  run,
}

// region tags for statements of a publish/replay function.
const (
	regShared = iota
	regHit
	regMiss
)

func run(pass *analysis.Pass) error {
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

// cacheMethod reports the name of the decoded-block-cache method a call
// invokes (a method on a Cache or Entry type declared in an
// internal/cache package), or "".
func cacheMethod(info *types.Info, call *ast.CallExpr, recvName string) string {
	obj, ok := analysis.CalleeObj(info, call).(*types.Func)
	if !ok || obj.Pkg() == nil || !analysis.PkgPathHas(obj.Pkg().Path(), "internal/cache") {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if n, ok := rt.(*types.Named); !ok || n.Obj().Name() != recvName {
		return ""
	}
	return obj.Name()
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo

	// Qualify: the function must both probe and publish.
	var getCalls []*ast.CallExpr
	publishes := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch cacheMethod(info, call, "Cache") {
		case "Get":
			getCalls = append(getCalls, call)
		case "Publish", "PublishBytes":
			publishes = true
		}
		return true
	})
	if len(getCalls) == 0 || !publishes {
		return
	}

	// Entry variables: objects assigned (or defined) from a Get result.
	entryVars := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isGet(call, getCalls) && i < len(x.Lhs) {
					if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
						if o := objOf(info, id); o != nil {
							entryVars[o] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range x.Values {
				if call, ok := ast.Unparen(v).(*ast.CallExpr); ok && isGet(call, getCalls) && i < len(x.Names) {
					if o := info.Defs[x.Names[i]]; o != nil {
						entryVars[o] = true
					}
				}
			}
		}
		return true
	})
	if len(entryVars) == 0 {
		return // Get result used inline; nothing to branch on
	}

	// Direct charges are recorded in the enclosing function's summary,
	// keyed by call site; transitive charges come from the callee's
	// summary. The collector needs both.
	direct := make(map[*ast.CallExpr]string)
	if fi := pass.Prog.InfoForDecl(pass.P, fn); fi != nil {
		for _, ch := range fi.Charges {
			direct[ch.Call] = ch.Category
		}
	}

	c := &collector{
		pass:      pass,
		info:      info,
		entryVars: entryVars,
		direct:    direct,
		sets:      [3]map[string]bool{{}, {}, {}},
	}
	c.walkBlock(fn.Body.List, regShared)

	hit := union(c.sets[regShared], c.sets[regHit])
	miss := union(c.sets[regShared], c.sets[regMiss])
	if !equalSets(hit, miss) {
		pass.Reportf(fn.Pos(),
			"%s violates charge replay: cache-hit path charges {%s} but cold path charges {%s}; hits must replay exactly the charges recorded at publish",
			fn.Name.Name, analysis.SortedSet(hit), analysis.SortedSet(miss))
	}
	// The cycles-replay rule applies only to charge-modeling functions: a
	// site that only probes or publishes charges nothing in either arm and
	// records no decode cycles to replay.
	if len(hit)+len(miss) > 0 && !c.hitReplaysCycles {
		pass.Reportf(fn.Pos(),
			"%s violates charge replay: no cache-hit arm replays recorded decode cycles (call Cycles() on the entry and charge the result)",
			fn.Name.Name)
	}
}

func isGet(call *ast.CallExpr, gets []*ast.CallExpr) bool {
	for _, g := range gets {
		if g == call {
			return true
		}
	}
	return false
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// collector accumulates per-region category sets.
type collector struct {
	pass             *analysis.Pass
	info             *types.Info
	entryVars        map[types.Object]bool
	direct           map[*ast.CallExpr]string
	sets             [3]map[string]bool
	hitReplaysCycles bool
}

// walkBlock classifies a statement list under an inherited region tag.
// An if whose condition is a pure nil test of an entry variable tags its
// arms hit/miss; when such an arm terminates (ends in return), the rest
// of the block flips to the opposite region — the early-return shape.
func (c *collector) walkBlock(stmts []ast.Stmt, region int) {
	for i, s := range stmts {
		ifs, ok := s.(*ast.IfStmt)
		if !ok {
			c.walkStmt(s, region)
			continue
		}
		pol, pure := c.polarity(ifs.Cond)
		if pol == regShared {
			c.walkStmt(ifs, region)
			continue
		}
		if ifs.Init != nil {
			c.walkStmt(ifs.Init, region)
		}
		thenRegion, elseRegion := pol, opposite(pol)
		c.walkBlock(ifs.Body.List, combine(region, thenRegion))
		if ifs.Else != nil {
			c.walkStmt(ifs.Else, combine(region, elseRegion))
		} else if pure && terminates(ifs.Body) {
			// if ent != nil { ...; return } — the remainder of this block
			// runs only when the test failed.
			c.walkBlock(stmts[i+1:], combine(region, elseRegion))
			return
		}
	}
}

// combine nests region tags: once inside a hit or miss arm, deeper
// entry-variable branches keep the outer tag (the outer condition already
// fixed which world we are in).
func combine(outer, inner int) int {
	if outer != regShared {
		return outer
	}
	return inner
}

func opposite(r int) int {
	if r == regHit {
		return regMiss
	}
	return regHit
}

// polarity classifies a branch condition against the entry variables:
// `ent != nil` (optionally strengthened with &&) is a hit test, `ent ==
// nil` a miss test; anything else is shared. pure reports the condition
// is exactly the nil test, so its negation is exact too.
func (c *collector) polarity(cond ast.Expr) (region int, pure bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.NEQ, token.EQL:
			id, nilSide := ast.Unparen(x.X), ast.Unparen(x.Y)
			if c.isNil(id) {
				id, nilSide = nilSide, id
			}
			if !c.isNil(nilSide) {
				return regShared, false
			}
			ident, ok := id.(*ast.Ident)
			if !ok || !c.entryVars[objOf(c.info, ident)] {
				return regShared, false
			}
			if x.Op == token.NEQ {
				return regHit, true
			}
			return regMiss, true
		case token.LAND:
			// ent != nil && extra — still a hit-only arm, but its negation
			// is not a pure miss test.
			if r, _ := c.polarity(x.X); r != regShared {
				return r, false
			}
			if r, _ := c.polarity(x.Y); r != regShared {
				return r, false
			}
		}
	}
	return regShared, false
}

func (c *collector) isNil(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	return ok && tv.IsNil()
}

// terminates reports whether a block's last statement is a return.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// walkStmt records charges and cycle replays under one region tag,
// recursing through non-entry-branch control flow.
func (c *collector) walkStmt(n ast.Node, region int) {
	switch x := n.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		c.walkBlock(x.List, region)
		return
	case *ast.IfStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, region)
		}
		c.walkExpr(x.Cond, region)
		c.walkBlock(x.Body.List, region)
		c.walkStmt(x.Else, region)
		return
	case *ast.ForStmt:
		c.walkStmt(x.Init, region)
		c.walkExpr(x.Cond, region)
		c.walkStmt(x.Post, region)
		c.walkBlock(x.Body.List, region)
		return
	case *ast.RangeStmt:
		c.walkExpr(x.X, region)
		c.walkBlock(x.Body.List, region)
		return
	case *ast.SwitchStmt:
		c.walkStmt(x.Init, region)
		c.walkExpr(x.Tag, region)
		c.walkBlock(x.Body.List, region)
		return
	case *ast.CaseClause:
		for _, e := range x.List {
			c.walkExpr(e, region)
		}
		c.walkBlock(x.Body, region)
		return
	case ast.Stmt:
		ast.Inspect(x, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				c.recordCall(call, region)
			}
			return true
		})
		return
	}
}

func (c *collector) walkExpr(e ast.Expr, region int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			c.recordCall(call, region)
		}
		return true
	})
}

// recordCall accumulates the call's direct or transitive charge set into
// the region, and notes hit-region Cycles() replays.
func (c *collector) recordCall(call *ast.CallExpr, region int) {
	if cat, ok := c.direct[call]; ok {
		c.sets[region][cat] = true
		return
	}
	obj, ok := analysis.CalleeObj(c.info, call).(*types.Func)
	if !ok {
		return
	}
	if region == regHit && cacheMethod(c.info, call, "Entry") == "Cycles" {
		c.hitReplaysCycles = true
	}
	key := analysis.FuncKey(obj)
	for cat := range c.pass.Prog.TransitiveCharges(key) {
		c.sets[region][cat] = true
	}
}

func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func equalSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
