// Package lint is a small, dependency-free static-analysis framework in
// the spirit of golang.org/x/tools/go/analysis, built on the standard
// library only (the build environment is hermetic, so x/tools cannot be
// vendored). It backs the quicknnlint multichecker (cmd/quicknnlint) that
// enforces the repo-specific invariants described in docs/invariants.md
// and docs/lint.md:
//
//   - nakedrand:   no global math/rand state outside tests
//   - cycleint:    cycle/tCK arithmetic stays in integer types
//   - walltime:    no wall-clock calls in simulation packages
//   - panicmsg:    library panics carry a "pkg: " prefix
//   - ctxfirst:    context.Context first and never stored in a struct
//   - atomicfield: sync/atomic'd struct fields atomic everywhere + aligned
//   - scratchleak: pooled Scratch reaches a Put on every return path
//   - recordpath:  flight-recorder record paths stay allocation-free and flat
//
// The framework has two drivers. The typed driver (TypeCheckModule +
// RunTyped, used by cmd/quicknnlint and the repo self-test) type-checks
// the whole module in dependency order with go/types and gives every
// analyzer a types.Info, so rules resolve real objects instead of
// matching import tables. The syntactic driver (Run) parses only; it
// remains as the degraded mode for packages whose type-check fails and
// as the behavior-preservation baseline the ported analyzers are tested
// against (linttest runs every fixture through both drivers and requires
// identical diagnostics).
//
// # Suppression
//
// A diagnostic can be suppressed with a justification comment on the line
// of — or the line before — the offending expression:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; bare suppressions are themselves reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule.
type Analyzer struct {
	// Name identifies the rule in reports and //lint:ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run applies the rule to one package.
	Run func(*Pass) error
	// NeedsTypes marks analyzers that resolve typed objects and have no
	// syntactic fallback: the syntactic driver skips them, and the typed
	// driver skips them for packages whose type-check produced no
	// information at all.
	NeedsTypes bool
}

// File is one parsed source file of a package.
type File struct {
	AST *ast.File
	// Name is the file path as given to the parser.
	Name string
	// Test reports whether the file is a _test.go file.
	Test bool
}

// Package is one parsed package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Name is the package name (from the first non-test file).
	Name string
	// Dir is the directory the files were loaded from.
	Dir string
	// Files holds the parsed files, sorted by name.
	Files []File
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way the multichecker prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Module is the module path ("github.com/quicknn/quicknn"); analyzers
	// use it to scope rules to package subtrees.
	Module string

	// TypesInfo holds merged type information for every file of the
	// package (base, in-package test and external test units) when the
	// typed driver is running. It is nil under the syntactic driver and
	// for packages whose type-check failed outright. It may be partial
	// when the type-check reported errors; analyzers must treat a missing
	// map entry as "unresolved" and fall back to their syntactic
	// heuristic for that node.
	TypesInfo *types.Info
	// TypesPkg is the type-checked base+test package, nil when TypesInfo
	// is nil.
	TypesPkg *types.Package

	diags   *[]Diagnostic
	ignores map[string]map[int][]string // filename -> line -> analyzer names
}

// Typed reports whether type information is available for this pass.
func (p *Pass) Typed() bool { return p.TypesInfo != nil }

// PkgNamePath resolves id as a reference to an imported package and
// returns that package's import path. ok is false when no type
// information is available, when id has no recorded use, or when it
// resolves to anything other than a package name (e.g. a local variable
// shadowing the import).
func (p *Pass) PkgNamePath(id *ast.Ident) (path string, ok bool) {
	if p.TypesInfo == nil {
		return "", false
	}
	if pn, isPkg := p.TypesInfo.Uses[id].(*types.PkgName); isPkg {
		return pn.Imported().Path(), true
	}
	return "", false
}

// Resolved reports whether the typed driver recorded any object for id.
// Analyzers use it to decide between trusting type information and
// falling back to syntax: a false result on a typed pass means the
// type-check degraded around this identifier.
func (p *Pass) Resolved(id *ast.Ident) bool {
	if p.TypesInfo == nil {
		return false
	}
	_, ok := p.TypesInfo.Uses[id]
	return ok
}

// Reportf records a diagnostic at pos unless an ignore directive for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether an ignore directive for this analyzer exists
// on the diagnostic's line or the line directly above it.
func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.ignores[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == p.Analyzer.Name || name == "*" {
				return true
			}
		}
	}
	return false
}

// ignoreDirective is the suppression comment prefix.
const ignoreDirective = "lint:ignore"

// collectIgnores indexes every //lint:ignore directive of the package.
// Directives without both an analyzer name and a reason are reported as
// diagnostics themselves (category "lint"), so suppressions always carry a
// justification.
func collectIgnores(fset *token.FileSet, pkg *Package, diags *[]Diagnostic) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int][]string)
				}
				out[pos.Filename][pos.Line] = append(out[pos.Filename][pos.Line], fields[0])
			}
		}
	}
	return out
}

// Run applies every analyzer to every package syntactically (no type
// information) and returns the merged, position-sorted diagnostics.
func Run(fset *token.FileSet, pkgs []*Package, module string, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunTyped(fset, pkgs, module, nil, analyzers)
}

// RunTyped applies every analyzer to every package and returns the
// merged, position-sorted diagnostics. When typed is non-nil it supplies
// per-package type information (from TypeCheckModule); packages missing
// from the map — or whose check produced no information — run in
// syntactic mode, and analyzers with NeedsTypes set are skipped for
// them.
func RunTyped(fset *token.FileSet, pkgs []*Package, module string, typed map[*Package]*Typed, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(fset, pkg, &diags)
		var info *types.Info
		var tpkg *types.Package
		if tr := typed[pkg]; tr != nil {
			info = tr.Info
			tpkg = tr.Pkg
		}
		for _, a := range analyzers {
			if a.NeedsTypes && info == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Pkg:       pkg,
				Module:    module,
				TypesInfo: info,
				TypesPkg:  tpkg,
				diags:     &diags,
				ignores:   ignores,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ImportName returns the local name under which file f imports path, and
// whether it imports it at all. The blank import name "_" yields ok=false
// (nothing can be referenced through it).
func ImportName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "", false
			}
			return imp.Name.Name, true
		}
		// Default name: the last path element, with any major-version
		// suffix ("/v2") stripped the way the go tool does.
		parts := strings.Split(p, "/")
		name := parts[len(parts)-1]
		if strings.HasPrefix(name, "v") && len(parts) > 1 {
			if isVersionSuffix(name) {
				name = parts[len(parts)-2]
			}
		}
		return name, true
	}
	return "", false
}

// isVersionSuffix reports whether s looks like "v2", "v3", ...
func isVersionSuffix(s string) bool {
	if len(s) < 2 || s[0] != 'v' {
		return false
	}
	for _, r := range s[1:] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// PkgIdent reports whether id is a reference to the package imported under
// name (i.e. not a locally declared identifier shadowing it).
func PkgIdent(id *ast.Ident, name string) bool {
	return id.Name == name && id.Obj == nil
}

// WalkStack walks the AST in depth-first order calling fn with each node
// and the stack of its ancestors (outermost first, not including n).
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// HasDirective reports whether any comment group in groups contains the
// given machine directive (e.g. "quicknnlint:reporting").
func HasDirective(directive string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			if strings.HasPrefix(strings.TrimSpace(text), directive) {
				return true
			}
		}
	}
	return false
}
