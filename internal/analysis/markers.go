package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Marker comments form the annotation contract between the code and the
// analyzer suite (documented in DESIGN.md "Enforced invariants"):
//
//	//boss:hotpath       — hotpathalloc + hotpathescape enforce
//	                       allocation-free code (syntactic bans and the
//	                       compiler's escape analysis, respectively)
//	//boss:wallclock     — waives simdeterminism's wall-clock ban
//	//boss:pool-escapes  — waives poolhygiene's Get/Put pairing
//	//boss:ctx-root      — waives ctxflow's context.Background/TODO ban
//	                       (the function is a deliberate context root)
//	//boss:daemon        — waives goroutineleak for a goroutine that is
//	                       meant to live for the process lifetime
//	//boss:escape-ok     — line-level waiver for one compiler-reported
//	                       escape inside a //boss:hotpath function (the
//	                       escape is on a cold branch)
//
// A marker applies to a function when it appears in the function's doc
// comment, and to a whole file when it appears in the file's header (any
// comment group that starts before the first non-import declaration).
// //boss:daemon additionally applies to a single go statement when it
// appears on the line directly above it, and //boss:escape-ok to a single
// source line. Markers may carry a trailing justification:
// "//boss:wallclock QPS is a host-side measurement".
//
// Every waiver is verified: a marker whose referent no longer exists, or
// that no longer suppresses anything (the analyzer it waives would not
// fire without it), is itself a finding, so waivers cannot rot in place.
const (
	MarkerHotPath     = "//boss:hotpath"
	MarkerWallclock   = "//boss:wallclock"
	MarkerPoolEscapes = "//boss:pool-escapes"
	MarkerCtxRoot     = "//boss:ctx-root"
	MarkerDaemon      = "//boss:daemon"
	MarkerEscapeOK    = "//boss:escape-ok"
)

// commentHasMarker reports whether any line of the group is the marker,
// optionally followed by a justification.
func commentHasMarker(g *ast.CommentGroup, marker string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// FuncHasMarker reports whether fn's doc comment carries the marker.
func FuncHasMarker(fn *ast.FuncDecl, marker string) bool {
	return commentHasMarker(fn.Doc, marker)
}

// FileHasMarker reports whether the file's header carries the marker. The
// header is every comment group positioned before the first declaration
// that is not an import.
func FileHasMarker(f *ast.File, marker string) bool {
	end := token.Pos(0)
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			continue
		}
		end = d.Pos()
		break
	}
	for _, g := range f.Comments {
		if end.IsValid() && end != token.NoPos && g.Pos() >= end {
			break
		}
		if commentHasMarker(g, marker) {
			return true
		}
	}
	return false
}

// markerLine reports whether a single comment line is the marker.
func markerLine(c *ast.Comment, marker string) bool {
	text := strings.TrimSpace(c.Text)
	return text == marker || strings.HasPrefix(text, marker+" ")
}

// DanglingMarkers returns the positions of marker comments in f that are
// attached to nothing the analyzers look at: not a function's doc comment
// and not the file header. These are markers whose referent declaration
// was refactored away (or that sit on a var/type declaration, which no
// analyzer consults) — stale by construction.
func DanglingMarkers(f *ast.File, marker string) []token.Pos {
	attached := make(map[*ast.CommentGroup]bool)
	var headerEnd token.Pos
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			continue
		}
		if headerEnd == token.NoPos {
			headerEnd = d.Pos()
		}
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Doc != nil {
			attached[fn.Doc] = true
		}
	}
	var out []token.Pos
	for _, g := range f.Comments {
		if attached[g] {
			continue
		}
		if headerEnd == token.NoPos || g.Pos() < headerEnd {
			continue // file header: a legal whole-file marker position
		}
		for _, c := range g.List {
			if markerLine(c, marker) {
				out = append(out, c.Pos())
			}
		}
	}
	return out
}

// LineMarkers returns the positions of every marker comment line in f,
// wherever it appears (doc comment, header, inline, floating).
func LineMarkers(f *ast.File, marker string) []token.Pos {
	var out []token.Pos
	for _, g := range f.Comments {
		for _, c := range g.List {
			if markerLine(c, marker) {
				out = append(out, c.Pos())
			}
		}
	}
	return out
}

// HasLineMarker reports whether a marker comment sits on the given line
// or on the line directly above it — the attachment rule for statement-
// level markers (//boss:daemon above a go statement, //boss:escape-ok on
// an escaping line).
func HasLineMarker(fset *token.FileSet, f *ast.File, line int, marker string) bool {
	for _, g := range f.Comments {
		for _, c := range g.List {
			if !markerLine(c, marker) {
				continue
			}
			cl := fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// RootIdent peels selectors, indexing, slicing, dereferences, parentheses,
// and type assertions off an expression and returns the identifier at its
// root, or nil when the expression is not rooted in an identifier (e.g. a
// call result or a literal).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// RootObj resolves the root identifier of e to its types.Object, or nil.
func RootObj(info *types.Info, e ast.Expr) types.Object {
	id := RootIdent(e)
	if id == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// PkgPathHas reports whether path contains seg as a whole slash-separated
// segment run (so "internal/sim" matches "boss/internal/sim" and
// "fixtures/internal/sim/sub" but not "boss/internal/simx").
func PkgPathHas(path, seg string) bool {
	return path == seg ||
		strings.HasSuffix(path, "/"+seg) ||
		strings.HasPrefix(path, seg+"/") ||
		strings.Contains(path, "/"+seg+"/")
}

// PkgPathHasAny reports whether path matches any segment run in segs.
func PkgPathHasAny(path string, segs []string) bool {
	for _, s := range segs {
		if PkgPathHas(path, s) {
			return true
		}
	}
	return false
}

// CalleeObj resolves the object a call expression invokes: a *types.Func for
// ordinary function and method calls, a *types.Builtin for builtins, nil for
// indirect calls through function values and for type conversions.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // qualified identifier: pkg.Func
	}
	return nil
}
