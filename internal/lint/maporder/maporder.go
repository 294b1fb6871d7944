// Package maporder defines the mariohlint analyzer that guards the
// byte-identical-output contract against Go's randomized map iteration
// order.
//
// Within the determinism-critical packages (-maporder.packages), a
// `range` over a map whose body feeds an order-sensitive sink — an
// append, an emitted line, a hash/encoder update, a channel send, a
// non-commutative accumulation — produces output that differs from run
// to run. The analyzer reports every such loop unless the collected
// values are demonstrably sorted afterwards in the same function, or
// the site carries a //lint:maporder <reason> justification.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"marioh/internal/lint/lintutil"
)

const doc = `flag map iterations whose order leaks into output

Reconstruction output must be byte-identical regardless of worker count,
delta history, or transport; a range over a map that appends, writes,
hashes, encodes, sends, or accumulates non-commutatively makes it depend
on Go's randomized iteration order. Sort the keys first (a later
sort.X/slices.Sort of the collected slice in the same function also
counts) or annotate the loop with //lint:maporder <reason>.`

// DefaultPackages are the determinism-critical package suffixes the
// analyzer polices by default; testdata packages are always in scope.
const DefaultPackages = "internal/core,internal/graph,internal/shard,internal/incremental,internal/hypergraph,internal/durability,internal/corpus"

const name = "maporder"

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var packagesFlag = DefaultPackages

func init() {
	Analyzer.Flags.StringVar(&packagesFlag, "packages", DefaultPackages,
		"comma-separated package path suffixes to analyze")
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.InScope(pass.Pkg.Path(), packagesFlag) {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		rng := n.(*ast.RangeStmt)
		if !isMapType(pass.TypesInfo.TypeOf(rng.X)) {
			return true
		}
		if lintutil.IsTestFile(pass, rng.Pos()) {
			return false
		}
		if lintutil.Suppressed(pass, rng.Pos(), name) {
			return true
		}
		enclosing := lintutil.EnclosingFunc(stack)
		if sink := findSink(pass, rng, enclosing); sink != "" {
			pass.Reportf(rng.Pos(),
				"map iteration order feeds %s; sort the keys first or annotate the loop with //lint:maporder <reason>",
				sink)
		}
		return true
	})
	return nil, nil
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// findSink walks the loop body for the first order-sensitive sink and
// describes it; "" means the body is order-safe.
func findSink(pass *analysis.Pass, rng *ast.RangeStmt, enclosing ast.Node) string {
	keyObj := rangeVarObj(pass, rng.Key)
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
			return false
		case *ast.CallExpr:
			if s := callSink(pass, n, rng, enclosing); s != "" {
				sink = s
				return false
			}
		case *ast.AssignStmt:
			if s := assignSink(pass, n, keyObj); s != "" {
				sink = s
				return false
			}
		}
		return true
	})
	return sink
}

// rangeVarObj resolves a range clause variable (key or value) to its
// object, for both := definitions and = assignments to existing vars.
func rangeVarObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// callSink classifies a call inside the loop body as an order-sensitive
// sink: append (unless the destination is sorted later in the same
// function), fmt emission, or a Write/Encode/Sum-style method that
// folds values into a stream, builder, hash or encoder.
func callSink(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt, enclosing ast.Node) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" && len(call.Args) > 0 {
			dst := baseObj(pass, call.Args[0])
			// Appending to a value born inside the loop body (a fresh
			// per-iteration slice, `append([]int(nil), m...)` and
			// friends) accumulates nothing across iterations.
			if dst == nil || dst.Pos() > rng.Pos() && dst.Pos() < rng.End() {
				return ""
			}
			if sortedAfter(pass, dst, rng, enclosing) {
				return ""
			}
			return "an append"
		}
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Name() {
		case "Sprint", "Sprintf", "Sprintln", "Errorf":
			return "" // value construction, not emission
		}
		return "output via fmt." + fn.Name()
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo",
		"Encode", "EncodeElement", "Sum", "Sum32", "Sum64":
		return "a " + sel.Sel.Name + " call"
	}
	return ""
}

// assignSink flags non-commutative accumulations: self-referential
// updates like h = mix(h, x), string or float op-assign, and writes to
// a slice element at a non-key index (the append-by-cursor idiom).
func assignSink(pass *analysis.Pass, assign *ast.AssignStmt, keyObj types.Object) string {
	for i, lhs := range assign.Lhs {
		switch assign.Tok {
		case token.ASSIGN, token.DEFINE:
			if i < len(assign.Rhs) && selfReferential(pass, lhs, assign.Rhs[i]) {
				return "a self-referential accumulation"
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			// Integer += and friends commute (bitwise ops always do, and
			// are excluded here entirely: XOR-folding per-key hashes is
			// the sanctioned order-independent fingerprint idiom);
			// string concatenation and floating-point arithmetic do not.
			if t := pass.TypesInfo.TypeOf(lhs); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok {
					if b.Info()&types.IsString != 0 && assign.Tok == token.ADD_ASSIGN {
						return "a string concatenation"
					}
					if b.Info()&(types.IsFloat|types.IsComplex) != 0 {
						return "a floating-point accumulation"
					}
				}
			}
		}
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			t := pass.TypesInfo.TypeOf(idx.X)
			if t == nil {
				continue
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array:
				if keyObj == nil || exprObj(pass, idx.Index) != keyObj {
					return "a slice write at a loop-carried index"
				}
			}
		}
	}
	return ""
}

// selfReferential reports whether rhs reads the object written by lhs
// through a call — the hash-chaining shape h = mix(h, k).
func selfReferential(pass *analysis.Pass, lhs, rhs ast.Expr) bool {
	obj := baseObj(pass, lhs)
	if obj == nil {
		return false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	// x = append(x, ...) is callSink's case, where the collect-then-sort
	// idiom is recognized; don't double-report it here.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return false
		}
	}
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
			return !found
		})
	}
	return found
}

// baseObj resolves the variable at the root of expr (unwrapping index
// and selector chains) so `out`, `out[i]` and `s.buf` all map to an
// object to track.
func baseObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[e]
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return pass.TypesInfo.Uses[e.Sel]
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

func exprObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// sortedAfter reports whether obj is passed to a sort.* or slices.*
// ordering call after the loop ends, inside the same enclosing
// function — the collect-then-sort idiom that makes map iteration safe.
func sortedAfter(pass *analysis.Pass, obj types.Object, rng *ast.RangeStmt, enclosing ast.Node) bool {
	if enclosing == nil {
		return false
	}
	sorted := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return true
	})
	return sorted
}
