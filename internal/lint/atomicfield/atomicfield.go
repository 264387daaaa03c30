// Package atomicfield implements the mixed-atomics analyzer: once any
// site accesses a struct field through sync/atomic, every access to that
// field must be atomic, and 64-bit atomic fields must be 8-byte aligned
// even on 32-bit layouts. A single plain load next to atomic stores is a
// data race the race detector only catches when the interleaving
// happens to fire; alignment violations panic at runtime on 386/ARM.
// The serving layer's epoch refcounts and the k-d tree batch runner's
// claim counter (internal/serve, internal/kdtree) are exactly this shape — they use the typed atomic.Int64/Uint64
// wrappers, which this rule does not flag, and the rule keeps raw
// sync/atomic usage from regressing below that bar.
//
// The analyzer is package-local and typed-only: it keys fields by their
// types.Var object, so embedded selectors, aliased receivers and
// shadowed package names all resolve exactly. Intentional non-atomic
// access (e.g. a constructor writing before publication) is suppressed
// with //lint:ignore atomicfield <reason>.
package atomicfield

import (
	"go/ast"
	"go/types"

	"github.com/quicknn/quicknn/internal/lint"
)

// Analyzer is the mixed-atomics rule.
var Analyzer = &lint.Analyzer{
	Name:       "atomicfield",
	Doc:        "struct fields accessed via sync/atomic must be atomic at every site and 8-byte aligned",
	Run:        run,
	NeedsTypes: true,
}

// atomicFns maps sync/atomic function names to the bit width of the
// value they operate on (0 = width irrelevant for alignment, e.g.
// pointers on 32-bit are 4 bytes).
var atomicFns = map[string]int{
	"AddInt32": 32, "AddInt64": 64, "AddUint32": 32, "AddUint64": 64, "AddUintptr": 0,
	"LoadInt32": 32, "LoadInt64": 64, "LoadUint32": 32, "LoadUint64": 64, "LoadUintptr": 0, "LoadPointer": 0,
	"StoreInt32": 32, "StoreInt64": 64, "StoreUint32": 32, "StoreUint64": 64, "StoreUintptr": 0, "StorePointer": 0,
	"SwapInt32": 32, "SwapInt64": 64, "SwapUint32": 32, "SwapUint64": 64, "SwapUintptr": 0, "SwapPointer": 0,
	"CompareAndSwapInt32": 32, "CompareAndSwapInt64": 64,
	"CompareAndSwapUint32": 32, "CompareAndSwapUint64": 64,
	"CompareAndSwapUintptr": 0, "CompareAndSwapPointer": 0,
	"AndInt32": 32, "AndInt64": 64, "AndUint32": 32, "AndUint64": 64,
	"OrInt32": 32, "OrInt64": 64, "OrUint32": 32, "OrUint64": 64,
}

// sizes32 is the strictest supported layout: 4-byte words, so a 64-bit
// field is 8-byte aligned only if its offset works out that way. A field
// safe under these sizes is safe everywhere the runtime supports.
var sizes32 = types.SizesFor("gc", "386")

// atomicUse records how a field was used atomically (for reporting).
type atomicUse struct {
	fn  string
	pos ast.Node
	w   int
}

func run(pass *lint.Pass) error {
	info := pass.TypesInfo

	// Pass 1: collect fields addressed into sync/atomic calls, and mark
	// the selector nodes those calls sanction.
	atomicFields := make(map[*types.Var]atomicUse)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fnSel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := fnSel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if path, isPkg := pass.PkgNamePath(pkgID); !isPkg || path != "sync/atomic" {
				return true
			}
			width, known := atomicFns[fnSel.Sel.Name]
			if !known {
				return true
			}
			// First argument must be &<something>.<field>.
			un, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok {
				return true
			}
			sel, ok := un.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok || !v.IsField() {
				return true
			}
			sanctioned[sel] = true
			if _, seen := atomicFields[v]; !seen {
				atomicFields[v] = atomicUse{fn: fnSel.Sel.Name, pos: call, w: width}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: every other selector resolving to one of those fields is a
	// mixed (non-atomic) access.
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return true
			}
			use, tracked := atomicFields[v]
			if !tracked {
				return true
			}
			pass.Reportf(sel.Pos(),
				"non-atomic access to field %s, which is accessed with atomic.%s at %s: once a field is atomic it must be atomic at every site",
				v.Name(), use.fn, pass.Fset.Position(use.pos.Pos()))
			return true
		})
	}

	// Pass 3: 64-bit atomic fields declared in this package must sit at
	// an 8-byte-aligned offset under the strictest (32-bit) layout.
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			checkAlignment(pass, atomicFields, st)
			return true
		})
	}
	return nil
}

// checkAlignment reports tracked 64-bit fields of this struct whose
// offset is not a multiple of 8 under 32-bit sizes.
func checkAlignment(pass *lint.Pass, tracked map[*types.Var]atomicUse, st *ast.StructType) {
	tv, ok := pass.TypesInfo.Types[st]
	if !ok {
		return
	}
	s, ok := types.Unalias(tv.Type).(*types.Struct)
	if !ok {
		return
	}
	fields := make([]*types.Var, s.NumFields())
	for i := range fields {
		fields[i] = s.Field(i)
	}
	offsets := sizes32.Offsetsof(fields)
	// Map offsets back to declaration idents for precise positions.
	i := 0
	for _, decl := range st.Fields.List {
		names := decl.Names
		if len(names) == 0 {
			names = []*ast.Ident{nil} // embedded field
		}
		for _, name := range names {
			if i >= len(fields) {
				return
			}
			use, isTracked := tracked[fields[i]]
			if isTracked && use.w == 64 && offsets[i]%8 != 0 {
				pos := st.Pos()
				if name != nil {
					pos = name.Pos()
				}
				pass.Reportf(pos,
					"64-bit atomic field %s is at offset %d: sync/atomic requires 8-byte alignment (panics on 32-bit targets); move it first or pad, or use atomic.Int64",
					fields[i].Name(), offsets[i])
			}
			i++
		}
	}
}
