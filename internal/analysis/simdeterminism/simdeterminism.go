// Package simdeterminism enforces DESIGN.md §7: simulated time must be
// byte-identical across runs. Inside the model packages it forbids the three
// classic ways replay determinism breaks in Go:
//
//  1. wall-clock reads (time.Now, time.Since, ...) — allowed only in
//     functions or files carrying a //boss:wallclock marker, and the marker
//     itself is verified (a stale waiver is a finding too);
//  2. the unseeded global math/rand source (rand.Intn, rand.Float64, ...);
//     explicitly seeded rand.New(rand.NewSource(seed)) generators are fine;
//  3. order-sensitive iteration over a map: a `range m` whose body exits
//     early (break/return — which iteration runs depends on map order), or
//     calls builtin delete (arbitrary-eviction shape), or feeds
//     simulated-time / metrics / event-queue state through a method on one
//     of the state-holding packages with an iteration-independent receiver
//     or argument. Order-insensitive uses — collecting keys for a later
//     sort, folding a commutative max/sum into a local — pass.
//
// The map rule is a heuristic: it recognizes the three shapes that have
// produced real nondeterminism in simulators of this style rather than
// proving order-independence. The deterministic rewrite is always available:
// iterate a sorted key slice.
package simdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"

	"boss/internal/analysis"
)

// ScopePackages are the package path segments the analyzer applies to: the
// simulated time units, the memory constants and fault model, the
// accelerator model, the programmable decompressor, the experiment harness
// that reports simulated figures, and the serving stack — front door and
// cluster read time only through internal/clock, whose wall implementation
// carries the one waiver, so a fake clock replays their decisions exactly.
var ScopePackages = []string{
	"internal/sim",
	"internal/mem",
	"internal/core",
	"internal/decomp",
	"internal/harness",
	"internal/clock",
	"internal/front",
	"internal/pool",
}

// StatePackages hold simulated-time, metrics, fault or breaker state; calling
// into them from inside a map iteration is what the map rule flags.
var StatePackages = []string{
	"internal/sim",
	"internal/mem",
	"internal/perf",
	"internal/topk",
	"internal/pool",
	"internal/hw",
}

// wallClockFuncs are the time-package functions that observe or depend on
// the host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// seededRandFuncs are the math/rand constructors that produce explicitly
// seeded generators; every other package-level rand function draws from the
// global (randomly seeded) source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// Analyzer is the simdeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock reads, unseeded global rand, and order-sensitive map iteration in the simulation model packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathHasAny(pass.Pkg.Path(), ScopePackages) {
		return nil
	}
	for _, file := range pass.Files {
		fileWaived := analysis.FileHasMarker(file, analysis.MarkerWallclock)
		fileUsesClock := false
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			funcWaived := analysis.FuncHasMarker(fn, analysis.MarkerWallclock)
			usesClock := checkFunc(pass, fn, fileWaived || funcWaived)
			fileUsesClock = fileUsesClock || usesClock
			if funcWaived && !usesClock {
				pass.Reportf(fn.Pos(), "stale //boss:wallclock marker: %s does not use the wall clock", fn.Name.Name)
			}
		}
		if fileWaived && !fileUsesClock {
			pass.Reportf(file.Pos(), "stale //boss:wallclock marker: file does not use the wall clock")
		}
	}
	return nil
}

// checkFunc walks one function, reporting violations; it returns whether the
// function references the wall clock (for stale-marker verification).
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, clockWaived bool) bool {
	usesClock := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if obj, ok := pass.TypesInfo.Uses[x.Sel].(*types.Func); ok && obj.Pkg() != nil &&
				obj.Type().(*types.Signature).Recv() == nil {
				// Package-level functions only: methods on an explicitly
				// seeded *rand.Rand (or a time.Timer) are deterministic.
				switch obj.Pkg().Path() {
				case "time":
					if wallClockFuncs[obj.Name()] {
						usesClock = true
						if !clockWaived {
							pass.Reportf(x.Pos(), "wall-clock call time.%s in simulation code (waive with //boss:wallclock if this is a host-side measurement)", obj.Name())
						}
					}
				case "math/rand", "math/rand/v2":
					if !seededRandFuncs[obj.Name()] {
						pass.Reportf(x.Pos(), "unseeded global rand.%s; use an explicitly seeded rand.New(rand.NewSource(seed))", obj.Name())
					}
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, x)
		}
		return true
	})
	return usesClock
}

// checkMapRange flags order-sensitive bodies of map-typed range loops.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	report := func(pos token.Pos, why string) {
		pass.Reportf(pos, "map iteration order is nondeterministic: %s; iterate a sorted key slice instead", why)
	}

	// Returns and state-feeding calls are order-sensitive at any nesting
	// depth inside the body; a return exits the range loop no matter how
	// deeply it sits.
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			report(x.Pos(), "loop returns after an order-dependent prefix of iterations")
		case *ast.CallExpr:
			checkMapRangeCall(pass, rng, x, report)
		}
		return true
	})
	// Breaks bind to the innermost for/range/switch/select, so only walk
	// the parts of the body where an unlabeled break targets this loop.
	// (A labeled break from a nested loop is not tracked — a heuristic gap
	// on the strict side of never, the lenient side of rarely.)
	reportBreaks(rng.Body, report)
}

// reportBreaks flags unlabeled break statements that target the map-range
// loop whose body is given, skipping subtrees where break rebinds.
func reportBreaks(n ast.Node, report func(token.Pos, string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return false
		case *ast.BranchStmt:
			if x.Tok == token.BREAK && x.Label == nil {
				report(x.Pos(), "loop breaks after an order-dependent prefix of iterations")
			}
		}
		return true
	})
}

// checkMapRangeCall flags calls inside a map-range body that feed state held
// by one of the StatePackages through an iteration-independent receiver or
// argument, plus the builtin delete (the arbitrary-eviction shape).
func checkMapRangeCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr, report func(token.Pos, string)) {
	obj := analysis.CalleeObj(pass.TypesInfo, call)
	if b, ok := obj.(*types.Builtin); ok {
		if b.Name() == "delete" {
			report(call.Pos(), "delete inside the iteration evicts an arbitrary entry")
		}
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !analysis.PkgPathHasAny(fn.Pkg().Path(), StatePackages) {
		return
	}
	// The call targets a state package. It is order-sensitive when the
	// state it touches outlives the iteration: receiver or any argument
	// rooted at a binding declared outside the loop.
	var exprs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		exprs = append(exprs, sel.X)
	}
	exprs = append(exprs, call.Args...)
	for _, e := range exprs {
		o := analysis.RootObj(pass.TypesInfo, e)
		if o == nil || o.Pos() == token.NoPos {
			continue
		}
		if o.Pos() < rng.Pos() || o.Pos() > rng.End() {
			report(call.Pos(), "call to "+fn.Pkg().Name()+"."+fn.Name()+" feeds state that outlives the iteration")
			return
		}
	}
}
