// Package lint is fmlint's analyzer suite: compiler-grade checks for the
// invariants this repository's guarantees rest on but which no unit test can
// exhaustively patrol — the ε-accounting discipline (noise is drawn only
// behind a durably journaled budget charge), rename durability (SyncDir
// after every atomic replace), bit-identity (no float accumulation under
// nondeterministic map iteration, no stray entropy or wall-clock reads in
// deterministic packages), and the zero-allocation hot paths.
//
// Analyzers match packages by import-path suffix (e.g. "serve" matches both
// funcmech/internal/serve and a fixture's cbn/serve), so the same analyzers
// run unchanged against the real tree and the testdata fixtures.
//
// Annotation vocabulary:
//
//	//fmlint:releases-noise           marks an audited release site: a
//	                                  serve-layer function allowed to reach
//	                                  noise draws, checked to charge and
//	                                  journal first (chargebeforenoise)
//	//fm:noalloc                      marks a hot function that must stay
//	                                  allocation-free (noalloc)
//	//fmlint:ignore <analyzer> <why>  suppresses one finding, on this line
//	                                  or the next; the justification is
//	                                  mandatory
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"funcmech/internal/lint/analysis"
)

// Suite returns every fmlint analyzer, in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ChargeBeforeNoise,
		SyncAfterRename,
		DetFloat,
		NakedRand,
		NoAlloc,
		CleanLog,
		TaskReg,
	}
}

// pkgMatches reports whether an import path matches any of the given package
// names, by exact match or by final path element ("core" matches
// "funcmech/internal/core" and "detfloat/core", not "funcmech/score").
func pkgMatches(path string, names ...string) bool {
	for _, n := range names {
		if path == n || strings.HasSuffix(path, "/"+n) {
			return true
		}
	}
	return false
}

// funcKey names a function unambiguously across packages:
// "pkg/path.Name" for functions, "pkg/path.Recv.Name" for methods. Packages
// type-checked from source and the same packages seen through export data
// yield different types.Func objects, so identity is by key, never pointer.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// calleeOf resolves a call expression to its statically known callee, or nil
// for calls through function values, interfaces, or built-ins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// hasDirective reports whether a doc comment group carries the directive
// (an exact comment line, e.g. "//fm:noalloc").
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// pkgNameOf resolves the X of a selector to an imported package, or nil.
func pkgNameOf(info *types.Info, x ast.Expr) *types.PkgName {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// baseObject peels selectors, indexes, stars and parens off an expression
// and resolves the base identifier's object ("q.M" → q, "g[i]" → g).
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}
