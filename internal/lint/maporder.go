package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` over map-typed expressions in internal,
// cmd, and examples packages when the loop's effects can depend on Go's
// randomized map iteration order. Two shapes are accepted without a
// finding:
//
//  1. The sorted-keys idiom: the loop only appends keys (or key/value
//     records) into slices that are subsequently sorted in an enclosing
//     block, e.g.
//
//     keys := make([]string, 0, len(m))
//     for k := range m {
//     keys = append(keys, k)
//     }
//     sort.Strings(keys)
//
//  2. Order-insensitive bodies: every statement is a commutative
//     accumulation — writes indexed by the (distinct) map keys, integer
//     +=/-=/*=/|=/&=/^= and ++/--, delete calls, or pure conditionals
//     around those. Floating-point accumulation is deliberately NOT
//     exempt: float addition is non-associative, so summing in map order
//     changes low bits run to run.
//
// Everything else must iterate over explicitly sorted keys.
type MapOrder struct{}

func (MapOrder) Name() string { return "maporder" }

func (MapOrder) Doc() string {
	return "flag map iteration whose order can leak into program state (internal, cmd, examples)"
}

func (MapOrder) Check(p *Package) []Finding {
	if !p.InInternal() && !p.InCmdOrExamples() {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		// Collect every function body as an independent statement-walk
		// root; the walker itself never descends into expressions, so
		// nested function literals are each visited exactly once.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				out = append(out, checkMapRanges(p, body.List, nil)...)
			}
			return true
		})
	}
	return out
}

// checkMapRanges walks a statement list. cont is the stack of
// "statements following an ancestor" slices — the places where a sort of
// collected keys may legally appear.
func checkMapRanges(p *Package, list []ast.Stmt, cont [][]ast.Stmt) []Finding {
	var out []Finding
	for i, st := range list {
		following := make([][]ast.Stmt, len(cont), len(cont)+1)
		copy(following, cont)
		following = append(following, list[i+1:])
		switch s := st.(type) {
		case *ast.RangeStmt:
			if isMapType(p, s.X) {
				out = append(out, checkOneMapRange(p, s, following)...)
			}
			out = append(out, checkMapRanges(p, s.Body.List, following)...)
		case *ast.BlockStmt:
			out = append(out, checkMapRanges(p, s.List, following)...)
		case *ast.ForStmt:
			out = append(out, checkMapRanges(p, s.Body.List, following)...)
		case *ast.IfStmt:
			out = append(out, checkMapRanges(p, s.Body.List, following)...)
			if s.Else != nil {
				out = append(out, checkMapRanges(p, []ast.Stmt{s.Else}, following)...)
			}
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				out = append(out, checkMapRanges(p, c.(*ast.CaseClause).Body, following)...)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				out = append(out, checkMapRanges(p, c.(*ast.CaseClause).Body, following)...)
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				out = append(out, checkMapRanges(p, c.(*ast.CommClause).Body, following)...)
			}
		case *ast.LabeledStmt:
			out = append(out, checkMapRanges(p, []ast.Stmt{s.Stmt}, cont)...)
		}
	}
	return out
}

func checkOneMapRange(p *Package, s *ast.RangeStmt, following [][]ast.Stmt) []Finding {
	ok, collected := orderInsensitive(p, s.Body.List)
	if !ok {
		return []Finding{{
			Pos:  p.Fset.Position(s.Pos()),
			Rule: "maporder",
			Msg: "map iteration order leaks into program state; iterate sorted keys " +
				"(collect, sort.X, then range the slice) or make the body commutative",
		}}
	}
	var out []Finding
	for _, obj := range collected {
		if !sortedLater(p, obj, following) {
			out = append(out, Finding{
				Pos:  p.Fset.Position(s.Pos()),
				Rule: "maporder",
				Msg: "keys collected from map range into " + obj.Name() +
					" are never sorted in the enclosing block; sort before use",
			})
		}
	}
	return out
}

// orderInsensitive reports whether every statement in body commutes
// across iterations, and returns the slice variables the body appends to
// (which the caller must verify are sorted afterwards).
func orderInsensitive(p *Package, body []ast.Stmt) (bool, []types.Object) {
	var collected []types.Object
	var walk func(list []ast.Stmt) bool
	walk = func(list []ast.Stmt) bool {
		for _, st := range list {
			switch s := st.(type) {
			case *ast.EmptyStmt:
			case *ast.BranchStmt:
				// continue skips an iteration (commutative); break makes
				// the outcome depend on which key came first.
				if s.Tok != token.CONTINUE {
					return false
				}
			case *ast.BlockStmt:
				if !walk(s.List) {
					return false
				}
			case *ast.IfStmt:
				if s.Init != nil || !pureExpr(p, s.Cond) || !walk(s.Body.List) {
					return false
				}
				if s.Else != nil && !walk([]ast.Stmt{s.Else}) {
					return false
				}
			case *ast.IncDecStmt:
				if !isInteger(p, s.X) {
					return false
				}
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok || !isBuiltin(p, call.Fun, "delete") {
					return false
				}
			case *ast.AssignStmt:
				obj, ok := classifyAssign(p, s)
				if !ok {
					return false
				}
				if obj != nil {
					collected = append(collected, obj)
				}
			default:
				return false
			}
		}
		return true
	}
	return walk(body), collected
}

// classifyAssign accepts three commutative assignment shapes. It returns
// (collectedSlice, ok): collectedSlice is non-nil for the append-collect
// form, which is only legal if the slice is sorted later.
func classifyAssign(p *Package, s *ast.AssignStmt) (types.Object, bool) {
	switch s.Tok {
	case token.ASSIGN:
		// keys = append(keys, ...)
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltin(p, call.Fun, "append") {
					if len(call.Args) >= 1 && !call.Ellipsis.IsValid() {
						if base, ok := call.Args[0].(*ast.Ident); ok && p.Info.Uses[base] != nil &&
							p.Info.Uses[base] == p.Info.ObjectOf(id) && pureExprs(p, call.Args[1:]) {
							return p.Info.Uses[base], true
						}
					}
				}
			}
		}
		// m[k] = v: distinct keys make map writes commute.
		for _, lhs := range s.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok || !isMapType(p, ix.X) || !pureExpr(p, ix.Index) {
				return nil, false
			}
		}
		if !pureExprs(p, s.Rhs) {
			return nil, false
		}
		return nil, true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative only in exact arithmetic: integers qualify
		// (wraparound included), floats do not.
		if len(s.Lhs) == 1 && isInteger(p, s.Lhs[0]) && pureExprs(p, s.Rhs) {
			return nil, true
		}
		return nil, false
	}
	return nil, false
}

// sortingFuncs are the sort and slices functions that put a slice in
// order; any other call (a search, say) leaves it in map order.
var sortingFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Sort": true, "Stable": true, "Slice": true, "SliceStable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedLater reports whether obj (a slice the range loop appended into)
// is passed to a sorting call in any statement following the loop in an
// enclosing block.
func sortedLater(p *Package, obj types.Object, following [][]ast.Stmt) bool {
	for _, list := range following {
		for _, st := range list {
			found := false
			ast.Inspect(st, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || found {
					return !found
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn := useOf(p, sel)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if !sortingFuncs[fn.Pkg().Path()][fn.Name()] {
					return true
				}
				for _, arg := range call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok && p.Info.Uses[id] == obj {
							found = true
						}
						return !found
					})
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

func isBuiltin(p *Package, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := p.Info.Uses[id]
	_, isB := obj.(*types.Builtin)
	return isB
}

// pureExpr conservatively decides an expression cannot have side effects
// or observe mutable global state beyond its named operands: no calls
// except len/cap/min/max and type conversions, no channel receives.
func pureExpr(p *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *ast.Ident, *ast.BasicLit, *ast.FuncLit:
		return true
	case *ast.ParenExpr:
		return pureExpr(p, e.X)
	case *ast.SelectorExpr:
		return pureExpr(p, e.X)
	case *ast.StarExpr:
		return pureExpr(p, e.X)
	case *ast.UnaryExpr:
		return e.Op != token.ARROW && pureExpr(p, e.X)
	case *ast.BinaryExpr:
		return pureExpr(p, e.X) && pureExpr(p, e.Y)
	case *ast.IndexExpr:
		return pureExpr(p, e.X) && pureExpr(p, e.Index)
	case *ast.SliceExpr:
		return pureExpr(p, e.X) && pureExpr(p, e.Low) && pureExpr(p, e.High) && pureExpr(p, e.Max)
	case *ast.TypeAssertExpr:
		return pureExpr(p, e.X)
	case *ast.CompositeLit:
		return pureExprs(p, e.Elts)
	case *ast.KeyValueExpr:
		return pureExpr(p, e.Key) && pureExpr(p, e.Value)
	case *ast.CallExpr:
		if isBuiltin(p, e.Fun, "len") || isBuiltin(p, e.Fun, "cap") ||
			isBuiltin(p, e.Fun, "min") || isBuiltin(p, e.Fun, "max") {
			return pureExprs(p, e.Args)
		}
		// Type conversions evaluate their single operand and nothing else.
		if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() {
			return pureExprs(p, e.Args)
		}
		return false
	}
	return false
}

func pureExprs(p *Package, es []ast.Expr) bool {
	for _, e := range es {
		if !pureExpr(p, e) {
			return false
		}
	}
	return true
}
