// Package lint is bulletlint's analysis engine: a stdlib-only static
// analyzer (go/parser + go/types, no external dependencies) that enforces
// the determinism contract of the simulation core (see DESIGN.md,
// "Determinism contract").
//
// The entire band-2 reproduction argument rests on gpusim/sim/sched being
// a deterministic discrete-event simulation: the same trace and seed must
// produce bit-identical figures and tables on every run. The analyzers in
// this package machine-check the properties that argument depends on:
//
//   - nodeterm:    no wall-clock time, global math/rand, or environment
//     reads inside internal packages (simulated time comes from sim.Clock);
//     inside forkjoin task bodies the checks apply everywhere and map
//     iteration is banned outright
//   - maporder:    no map iteration whose order can leak into results
//   - harnessonly: goroutines, channels, select, and sync are permitted
//     only inside the audited internal/forkjoin harness
//   - replicaisolation: forkjoin task bodies own only state they created
//     and their root[i] task-index slot; writes to captured or
//     package-level state are findings
//   - mergeorder:  fork/join results are consumed index-addressed, never
//     in completion order (no appends to shared slices, no result
//     channels, no channel drains at the join)
//   - floateq:     no exact ==/!= between computed floats
//   - panicmsg:    panics and log.Fatal exits must carry a formatted,
//     contextual message
//   - unitsafe:    physical quantities stay inside their internal/units
//     types — no unit-mixing conversions, no laundering through bare
//     float64, no raw literals fed to unit-typed parameters, no
//     dimensionally unsound unit*unit arithmetic
//   - hotalloc:    functions annotated //bullet:hotpath (and their
//     module-local static callees, to an annotation-controlled depth)
//     contain no allocation sites: escaping composite literals, new/make,
//     unprovable appends, interface boxing, closure captures, string
//     building, defer-in-loop, map iteration
//
// Findings can be suppressed per line with a directive comment:
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	// Suppressed marks a finding matched by a //lint:ignore directive.
	// Run drops suppressed findings; RunAll returns them flagged so
	// drivers (bulletlint -json) can surface what the ignores hide.
	Suppressed bool
}

// String formats the finding in the canonical "file:line: [rule] message"
// shape the driver prints and the fixture harness asserts against.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Package is one type-checked package handed to analyzers.
type Package struct {
	// Path is the full import path (e.g. "repro/internal/sched").
	Path string
	// Module is the module path from go.mod (e.g. "repro"). Fixture
	// harnesses set it explicitly so path-scoped rules behave as they
	// would on the real tree.
	Module string
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Rel returns the package path relative to the module root ("" for the
// root package, "internal/sched" for repro/internal/sched). Packages from
// other modules return their full path unchanged.
func (p *Package) Rel() string {
	if p.Path == p.Module {
		return ""
	}
	if rest, ok := strings.CutPrefix(p.Path, p.Module+"/"); ok {
		return rest
	}
	return p.Path
}

// InInternal reports whether the package sits under the module's
// internal/ tree — the scope of the nodeterm and maporder rules.
func (p *Package) InInternal() bool {
	rel := p.Rel()
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// corePackages is the deterministic simulation core: DESIGN.md specifies
// these as a single-threaded actor model driven solely by sim events.
var corePackages = map[string]bool{
	"internal/sim":        true,
	"internal/gpusim":     true,
	"internal/sched":      true,
	"internal/engine":     true,
	"internal/resource":   true,
	"internal/estimator":  true,
	"internal/kvcache":    true,
	"internal/smmask":     true,
	"internal/faults":     true,
	"internal/timeline":   true,
	"internal/pressure":   true,
	"internal/qos":        true,
	"internal/calib":      true,
	"internal/resilience": true,
}

// InCore reports whether the package is part of the deterministic
// simulation core.
func (p *Package) InCore() bool { return corePackages[p.Rel()] }

// InCmdOrExamples reports whether the package is a command or example
// main — exempt from the simulation-core rules (they may talk to the real
// world) but still subject to panicmsg.
func (p *Package) InCmdOrExamples() bool {
	rel := p.Rel()
	return strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
}

// Analyzer is one self-contained rule.
type Analyzer interface {
	// Name is the rule identifier used in findings and ignore directives.
	Name() string
	// Doc is a one-line description for -help output.
	Doc() string
	// Check inspects one package and returns its findings.
	Check(p *Package) []Finding
}

// DefaultAnalyzers returns the full rule suite in reporting order.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NoDeterm{},
		MapOrder{},
		HarnessOnly{},
		ReplicaIsolation{},
		MergeOrder{},
		FloatEq{},
		PanicMsg{},
		UnitSafe{},
		&HotAlloc{},
	}
}

// ModuleAware analyzers receive the full package set before per-package
// Check calls — the hook cross-package analyses (hotalloc's call-graph
// walk) use to see callee bodies in other packages.
type ModuleAware interface {
	SetModule(pkgs []*Package)
}

// Run applies every analyzer to every package, drops findings suppressed
// by //lint:ignore directives, and returns the rest sorted by position.
// Malformed directives are reported as rule "ignore" findings.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	var out []Finding
	for _, f := range RunAll(pkgs, analyzers) {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// RunAll is Run without the suppression filter: findings matched by a
// //lint:ignore directive come back with Suppressed set instead of being
// dropped, still sorted by position.
func RunAll(pkgs []*Package, analyzers []Analyzer) []Finding {
	var all []Finding
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAware); ok {
			ma.SetModule(pkgs)
		}
	}
	for _, p := range pkgs {
		ignores, bad := collectIgnores(p)
		all = append(all, bad...)
		for _, a := range analyzers {
			for _, f := range a.Check(p) {
				f.Suppressed = ignores.suppresses(f)
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return all
}

// ignoreSet maps file -> line -> set of suppressed rules. A directive on
// line N suppresses findings of its rule on lines N and N+1, so it can sit
// either on the offending line or immediately above it.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) suppresses(f Finding) bool {
	lines := s[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if rules := lines[ln]; rules != nil && (rules[f.Rule] || rules["all"]) {
			return true
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectIgnores scans a package's comments for //lint:ignore directives.
// Well-formed directives ("//lint:ignore rule reason", rules may be
// comma-separated, "all" matches every rule) populate the returned set;
// malformed ones (missing rule or reason) come back as findings so they
// cannot silently suppress nothing.
func collectIgnores(p *Package) (ignoreSet, []Finding) {
	set := ignoreSet{}
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:  pos,
						Rule: "ignore",
						Msg:  "malformed //lint:ignore directive: want \"//lint:ignore <rule> <reason>\"",
					})
					continue
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				rules := lines[pos.Line]
				if rules == nil {
					rules = map[string]bool{}
					lines[pos.Line] = rules
				}
				for _, r := range strings.Split(fields[0], ",") {
					rules[r] = true
				}
			}
		}
	}
	return set, bad
}

// typeOf is a nil-tolerant Info.TypeOf.
func typeOf(p *Package, e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// isMapType reports whether e's type (after named-type resolution) is a
// map.
func isMapType(p *Package, e ast.Expr) bool {
	t := typeOf(p, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloat reports whether e's type is a floating-point basic type.
func isFloat(p *Package, e ast.Expr) bool {
	t := typeOf(p, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInteger reports whether e's type is an integer basic type.
func isInteger(p *Package, e ast.Expr) bool {
	t := typeOf(p, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// useOf resolves a selector or identifier to the object it denotes.
func useOf(p *Package, e ast.Expr) types.Object {
	if p.Info == nil {
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// pkgFunc reports whether obj is the package-scope function pkgPath.name.
func pkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg().Path() == pkgPath && fn.Name() == name &&
		fn.Pkg().Scope().Lookup(name) == obj
}
