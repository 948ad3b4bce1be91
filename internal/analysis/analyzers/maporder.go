package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"unison/internal/analysis"
)

// Maporder flags `range` over a map whose body feeds an order-sensitive
// sink. Go randomizes map iteration order on purpose; the paper's §3
// deterministic tie-breaking only holds if that randomness never reaches
// simulation state, exported reports, or event queues.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc: `flag map ranges whose iteration order can leak into results

A for-range over a map is a diagnostic when its body
  - appends to a slice declared outside the loop (unless that slice is
    sorted later in the same function — the collect-then-sort idiom),
  - accumulates into an outer float or string with an op= assignment
    (float addition is not associative; concatenation is not commutative),
  - plain-assigns to an outer variable or field with the loop variables
    on the right-hand side (last write wins, and which write is last is
    random) — except writes indexed by the loop key, which are
    order-independent,
  - or calls an order-sensitive sink (Push, PushBatch, Schedule, Emit,
    Record, Write, Encode, Fprintf, ...).

Guarded monotone updates (if v > best { best = v }) are recognized as
commutative and exempt. Iterations that are otherwise genuinely
commutative carry an annotation with an optional reason:

	for k, v := range m { //unison:ordered sums are integer, order-free

Test files are not checked.`,
	Run: runMaporder,
}

// orderSinkNames are callee names treated as order-sensitive sinks when
// invoked from a map-range body.
var orderSinkNames = map[string]bool{
	"Push": true, "PushBatch": true, "Schedule": true, "ScheduleAt": true,
	"Emit": true, "Record": true, "WriteRecord": true, "Encode": true,
	"Write": true, "WriteString": true, "Fprintf": true, "Fprintln": true,
	"Fprint": true, "Printf": true, "Println": true, "Print": true,
}

func runMaporder(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		// Walk with the enclosing function body in hand, so the
		// sorted-later suppression can scan what follows the loop.
		var walk func(n ast.Node, fn ast.Node)
		walk = func(n ast.Node, fn ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						walk(n.Body, n.Body)
					}
					return false
				case *ast.FuncLit:
					walk(n.Body, n.Body)
					return false
				case *ast.RangeStmt:
					checkMapRange(pass, n, fn)
					return true
				}
				return true
			})
		}
		walk(file, nil)
	}
	return nil
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, enclosing ast.Node) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if ok, _ := escaped(pass, rng.Pos(), "ordered"); ok {
		return // reason is optional for //unison:ordered
	}

	loopVars := rangeLoopVars(pass, rng)
	guarded := guardedAssigns(pass, rng.Body)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body runs elsewhere; out of scope here
		case *ast.AssignStmt:
			if guarded[n] {
				return true // monotone max/min update: commutative
			}
			checkAssign(pass, rng, enclosing, loopVars, n)
		case *ast.CallExpr:
			if name, ok := calleeName(pass, n); ok && orderSinkNames[name] {
				pass.Reportf(n.Pos(), "map iteration order reaches order-sensitive sink %s; sort the keys first or annotate //unison:ordered", name)
			}
		}
		return true
	})
}

// guardedAssigns finds plain assignments guarded by an ordering
// comparison on the same variable — `if v > best { best = v }` — which
// are max/min reductions and therefore order-independent.
func guardedAssigns(pass *analysis.Pass, body ast.Node) map[*ast.AssignStmt]bool {
	out := make(map[*ast.AssignStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cmp, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cmp.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		condObjs := make(map[types.Object]bool)
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					condObjs[obj] = true
				}
			}
			return true
		})
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				for _, lhs := range as.Lhs {
					if id := rootIdent(lhs); id != nil {
						if obj := pass.TypesInfo.Uses[id]; obj != nil && condObjs[obj] {
							out[as] = true
						}
					}
				}
			}
			return true
		})
		return true
	})
	return out
}

// rangeLoopVars returns the objects bound by the range clause.
func rangeLoopVars(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				vars[obj] = true // `for k = range m` with an existing var
			}
		}
	}
	return vars
}

func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, enclosing ast.Node, loopVars map[types.Object]bool, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range as.Lhs {
			if as.Tok == token.DEFINE {
				continue
			}
			// append into an outer slice?
			if i < len(as.Rhs) {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
					if obj := outerObject(pass, rng, lhs); obj != nil {
						if sortedAfter(pass, enclosing, rng, obj) {
							continue // collect-then-sort idiom
						}
						pass.Reportf(as.Pos(), "appending to %s while ranging a map makes its element order random; sort the keys first or annotate //unison:ordered",
							exprString(lhs))
						continue
					}
				}
			}
			// last-write-wins into an outer var/field with loop data on the RHS?
			if obj := outerObject(pass, rng, lhs); obj != nil && !indexedByLoopKey(pass, lhs, loopVars) {
				if i < len(as.Rhs) && mentionsAny(pass, as.Rhs[min(i, len(as.Rhs)-1)], loopVars) {
					pass.Reportf(as.Pos(), "assignment to %s keeps only the map iteration's random last value; sort the keys first or annotate //unison:ordered",
						exprString(lhs))
				}
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		obj := outerObject(pass, rng, lhs)
		if obj == nil {
			return
		}
		t, ok := pass.TypesInfo.Types[lhs]
		if !ok {
			return
		}
		if b, ok := t.Type.Underlying().(*types.Basic); ok {
			switch {
			case b.Info()&types.IsFloat != 0:
				pass.Reportf(as.Pos(), "float accumulation into %s under map iteration is order-dependent (fp addition is not associative); sort the keys first or annotate //unison:ordered",
					exprString(lhs))
			case b.Info()&types.IsString != 0 && as.Tok == token.ADD_ASSIGN:
				pass.Reportf(as.Pos(), "string concatenation into %s under map iteration is order-dependent; sort the keys first or annotate //unison:ordered",
					exprString(lhs))
			}
		}
	}
}

// outerObject returns the object at the root of lhs if it was declared
// outside the range body (so writes to it survive the loop), else nil.
func outerObject(pass *analysis.Pass, rng *ast.RangeStmt, lhs ast.Expr) types.Object {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil || !obj.Pos().IsValid() {
		return nil
	}
	if obj.Pos() >= rng.Body.Pos() && obj.Pos() < rng.Body.End() {
		return nil // loop-local; dies with the iteration
	}
	return obj
}

// indexedByLoopKey reports whether lhs is an index expression whose index
// mentions a loop variable — m2[k] = ... is keyed per entry and therefore
// order-independent.
func indexedByLoopKey(pass *analysis.Pass, lhs ast.Expr, loopVars map[types.Object]bool) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	return mentionsAny(pass, ix.Index, loopVars)
}

// mentionsAny reports whether expr references any of the given objects.
func mentionsAny(pass *analysis.Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			if objs[pass.TypesInfo.Uses[id]] {
				found = true
			}
		}
		return !found
	})
	return found
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// calleeName resolves a call's method or function name when it is a
// *types.Func (not a builtin or conversion).
func calleeName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", false
	}
	if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
		return fn.Name(), true
	}
	return "", false
}

// sortedAfter reports whether obj is passed to a sort call after the
// range loop within the enclosing function body — the blessed
// collect-keys-then-sort idiom.
func sortedAfter(pass *analysis.Pass, enclosing ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	if enclosing == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsAny(pass, arg, map[types.Object]bool{obj: true}) {
				found = true
			}
		}
		return !found
	})
	return found
}

var sortFuncs = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return sortFuncs[fn.Pkg().Path()][fn.Name()]
}
