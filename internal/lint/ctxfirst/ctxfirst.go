// Package ctxfirst implements the context-placement analyzer: a
// context.Context parameter must be a function's first parameter, and
// contexts must not be stored in struct fields. Both are the standard Go
// conventions (context package docs): a trailing or mid-list ctx hides
// the cancellation contract from callers, and a struct-held context
// outlives the call it was scoped to, silently detaching deadlines from
// the work they were meant to bound. The serving layer's public API
// (Index.Query, Engine.Do, Pipeline.ProcessCtx) is context-first
// by design; this rule keeps every new signature in the module aligned
// with it.
//
// The one sanctioned exception — a request object that carries its
// submitter's context through a queue, in the manner of net/http.Request
// — is expressed with an explicit, justified directive:
//
//	//lint:ignore ctxfirst <reason>
package ctxfirst

import (
	"go/ast"
	"go/types"

	"github.com/quicknn/quicknn/internal/lint"
)

// Analyzer is the context-placement rule. Under the typed driver the
// parameter/field type is resolved through types.Info — anything whose
// type is the named type context.Context counts, including renamed
// imports and aliases; type expressions the checker could not resolve
// fall back to the `<ctxName>.Context` selector heuristic.
var Analyzer = &lint.Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context must be the first parameter and never a struct field",
	Run:  run,
}

// isContextType reports whether the expression is the type
// context.Context, resolved through type information when available and
// through the file's import name for the context package otherwise.
func isContextType(pass *lint.Pass, expr ast.Expr, ctxName string) bool {
	if pass.Typed() {
		if tv, ok := pass.TypesInfo.Types[expr]; ok {
			named, isNamed := types.Unalias(tv.Type).(*types.Named)
			if !isNamed {
				return false
			}
			obj := named.Obj()
			return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
		}
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == ctxName && lint.PkgIdent(id, id.Name)
}

// checkParams reports a context parameter that is not in first position.
// what names the function for the report ("function f", "method m",
// "function literal").
func checkParams(pass *lint.Pass, params *ast.FieldList, ctxName, what string) {
	if params == nil {
		return
	}
	pos := 0 // parameter position, counting multi-name fields
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter
		}
		if isContextType(pass, field.Type, ctxName) {
			if pos != 0 {
				pass.Reportf(field.Pos(),
					"context.Context is parameter %d of %s: a context must be the first parameter (Go convention; see docs/invariants.md)",
					pos+1, what)
			}
			return // only the first context parameter is positioned
		}
		pos += n
	}
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Pkg.Files {
		ctxName, ok := lint.ImportName(f.AST, "context")
		if !ok {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				what := "function " + node.Name.Name
				if node.Recv != nil {
					what = "method " + node.Name.Name
				}
				checkParams(pass, node.Type.Params, ctxName, what)
			case *ast.FuncLit:
				checkParams(pass, node.Type.Params, ctxName, "function literal")
			case *ast.InterfaceType:
				for _, m := range node.Methods.List {
					ft, ok := m.Type.(*ast.FuncType)
					if !ok || len(m.Names) == 0 {
						continue
					}
					checkParams(pass, ft.Params, ctxName, "interface method "+m.Names[0].Name)
				}
			case *ast.StructType:
				for _, field := range node.Fields.List {
					if isContextType(pass, field.Type, ctxName) {
						pass.Reportf(field.Pos(),
							"context.Context stored in a struct field: contexts are call-scoped — pass ctx as the first parameter instead (see docs/invariants.md)")
					}
				}
			}
			return true
		})
	}
	return nil
}
