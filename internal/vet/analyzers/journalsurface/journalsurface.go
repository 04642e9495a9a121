// Package journalsurface machine-checks the journal's write-surface
// invariant (PR 5/PR 9 contract).
//
// Every label that reaches the journal must come through one of the two
// crowd-surface wrappers on the root facade:
//
//	(journalOracle).Label
//	(journalPlatform).NextLabel
//
// so that exactly the answers bought from the crowd are made durable —
// nothing deduced, nothing machine-labeled. Concretely:
//
//  1. journalState.record (the group-commit append) may be called only
//     from those two wrappers. Any other call site is a path that could
//     write a non-crowd label into the journal and corrupt resume.
//
//  2. Triage code (files named triage*.go) must not reference journalState
//     at all: PR 9's rule is that machine labels from triage are NEVER
//     journaled, and the cheapest way to keep that true is to make the
//     journal unreachable from triage code, checked mechanically.
//
// The check runs only on the root facade package ("crowdjoin"), where
// journalState lives; it is unexported, so no other package can reach it.
package journalsurface

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"crowdjoin/internal/vet/analysis"
)

// Analyzer is the journalsurface check.
var Analyzer = &analysis.Analyzer{
	Name: "journalsurface",
	Doc:  "restrict journalState.record to the two crowd-surface wrappers and ban journalState from triage files",
	Run:  run,
}

// allowedCallers maps wrapper receiver type name -> method name allowed to
// call journalState.record.
var allowedCallers = map[string]string{
	"journalOracle":   "Label",
	"journalPlatform": "NextLabel",
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() != "crowdjoin" {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasPrefix(base, "triage") {
			checkTriageFile(pass, f)
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			allowed := isAllowedWrapper(pass, fd)
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isRecordCall(pass, call) {
					return true
				}
				if !allowed {
					pass.Reportf(call.Pos(), "journalState.record called outside the crowd-surface wrappers (journalOracle.Label, journalPlatform.NextLabel): only crowd answers may be journaled")
				}
				return true
			})
		}
	}
	return nil, nil
}

// isAllowedWrapper reports whether fd is one of the two crowd-surface
// wrapper methods.
func isAllowedWrapper(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	recv := recvTypeName(fd.Recv.List[0].Type)
	return allowedCallers[recv] == fd.Name.Name
}

// recvTypeName unwraps a receiver type expression to its base type name.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// isRecordCall reports whether call invokes journalState.record.
func isRecordCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "record" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isJournalState(pass, sig.Recv().Type())
}

// isJournalState reports whether t (possibly behind a pointer) is the
// package-under-analysis's journalState type.
func isJournalState(pass *analysis.Pass, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "journalState" && obj.Pkg() == pass.Pkg
}

// checkTriageFile flags every reference to journalState — the type itself,
// its methods, or any value of that type — inside a triage*.go file.
func checkTriageFile(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil {
			return true
		}
		switch o := obj.(type) {
		case *types.TypeName:
			if o.Name() == "journalState" && o.Pkg() == pass.Pkg {
				pass.Reportf(id.Pos(), "triage code must not reference journalState: machine labels are never journaled (PR 9 invariant)")
			}
		case *types.Func:
			if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil && isJournalState(pass, sig.Recv().Type()) {
				pass.Reportf(id.Pos(), "triage code must not call journalState methods: machine labels are never journaled (PR 9 invariant)")
			}
		case *types.Var:
			if !o.IsField() && isJournalState(pass, o.Type()) && pass.TypesInfo.Defs[id] == nil {
				pass.Reportf(id.Pos(), "triage code must not handle journalState values: machine labels are never journaled (PR 9 invariant)")
			}
		}
		return true
	})
}
