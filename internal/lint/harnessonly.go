package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// HarnessOnly enforces the module-wide concurrency contract: goroutines,
// channels, select, and the sync / sync·atomic packages are permitted
// only inside internal/forkjoin, the single audited fork/join harness.
// Everywhere else — the deterministic core and every other library
// package — concurrency is obtained exclusively by calling the harness,
// whose isolation contract keeps results independent of the Go
// scheduler. Ad-hoc concurrency anywhere else would let goroutine
// interleaving leak into results and destroy the bit-reproducibility the
// experiments rely on.
//
// cmd/ mains and examples/ stay out of scope — they talk to the real
// world by design.
type HarnessOnly struct{}

func (HarnessOnly) Name() string { return "harnessonly" }

func (HarnessOnly) Doc() string {
	return "forbid goroutines, channels, select, and sync outside the internal/forkjoin harness"
}

// isForkJoinPkg reports whether path is the whitelisted harness package.
// Fixtures declare the path via //linttest:path, so suffix matching keeps
// the rule independent of the module name.
func isForkJoinPkg(path string) bool {
	return path == "internal/forkjoin" || strings.HasSuffix(path, "/internal/forkjoin")
}

func (HarnessOnly) Check(p *Package) []Finding {
	if isForkJoinPkg(p.Path) || p.InCmdOrExamples() {
		return nil
	}
	var out []Finding
	flag := func(n ast.Node, what string) {
		out = append(out, Finding{
			Pos:  p.Fset.Position(n.Pos()),
			Rule: "harnessonly",
			Msg:  what + " outside internal/forkjoin; obtain concurrency by calling the harness",
		})
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if path, err := strconv.Unquote(n.Path.Value); err == nil {
					if path == "sync" || path == "sync/atomic" {
						flag(n, "import of "+path)
					}
				}
			case *ast.GoStmt:
				flag(n, "go statement")
			case *ast.SelectStmt:
				flag(n, "select statement")
			case *ast.SendStmt:
				flag(n, "channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					flag(n, "channel receive")
				}
			case *ast.ChanType:
				flag(n, "channel type")
			case *ast.RangeStmt:
				if t := typeOf(p, n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						flag(n, "range over channel")
					}
				}
			}
			return true
		})
	}
	return out
}

// forkTaskLit returns the task-body function literal of a
// forkjoin.Do/forkjoin.Map call, or nil when call is not a fork site with
// a literal body. Generic instantiations (forkjoin.Map[T](...)) are
// unwrapped.
func forkTaskLit(p *Package, call *ast.CallExpr) *ast.FuncLit {
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := useOf(p, sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !isForkJoinPkg(fn.Pkg().Path()) {
		return nil
	}
	if fn.Name() != "Do" && fn.Name() != "Map" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// forkTaskLits collects every fork-site task literal in a file, for rules
// that scope sub-checks to forked task bodies.
func forkTaskLits(p *Package, file *ast.File) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit := forkTaskLit(p, call); lit != nil {
				lits = append(lits, lit)
			}
		}
		return true
	})
	return lits
}

// inAny reports whether pos falls inside one of the literals.
func inAny(lits []*ast.FuncLit, pos token.Pos) bool {
	for _, l := range lits {
		if l.Body != nil && l.Body.Pos() <= pos && pos < l.Body.End() {
			return true
		}
	}
	return false
}
