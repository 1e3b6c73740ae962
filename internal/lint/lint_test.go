package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Shared across fixture tests so the source importer's type-checking of
// the standard library is paid once.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = importer.ForCompiler(fixtureFset, "source", nil)
	fixtureImp  = &fixtureImporter{std: fixtureStd}
)

// fixtureLocalDirs maps module-local import paths fixtures may use to
// the sibling source directories they type-check from. The stdlib source
// importer cannot see module-local packages, so the fixture importer
// loads these itself; everything else falls through to the standard
// importer. Fixtures can then `import "repro/internal/units"` or
// `import "repro/internal/forkjoin"` like real tree code.
var fixtureLocalDirs = map[string]string{
	"repro/internal/units":    filepath.Join("..", "units"),
	"repro/internal/forkjoin": filepath.Join("..", "forkjoin"),
}

type fixtureImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
	errs map[string]error
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	dir, local := fixtureLocalDirs[path]
	if !local {
		return im.std.Import(path)
	}
	if im.pkgs == nil {
		im.pkgs = map[string]*types.Package{}
		im.errs = map[string]error{}
	}
	if pkg, done := im.pkgs[path]; done {
		return pkg, im.errs[path]
	}
	pkg, err := im.loadLocal(path, dir)
	im.pkgs[path], im.errs[path] = pkg, err
	return pkg, err
}

func (im *fixtureImporter) loadLocal(path, dir string) (*types.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fixtureFset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	return conf.Check(path, fixtureFset, files, nil)
}

// loadFixture parses and type-checks one standalone fixture file. The
// fixture's assumed import path comes from a first-line
// "//linttest:path <path>" directive (default repro/internal/fixture),
// so path-scoped rules see the fixture as if it lived on the real tree.
func loadFixture(t *testing.T, file string) *Package {
	t.Helper()
	return loadFixtureSource(t, file, nil)
}

// loadFixtureSource is loadFixture for in-memory sources (src non-nil),
// used by table-driven tests that synthesize one function per case.
func loadFixtureSource(t *testing.T, file string, src any) *Package {
	t.Helper()
	f, err := parser.ParseFile(fixtureFset, file, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	path := "repro/internal/fixture"
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, "//linttest:path"); ok {
				path = strings.TrimSpace(rest)
			}
		}
	}
	info := newInfo()
	conf := types.Config{Importer: fixtureImp}
	tpkg, err := conf.Check(path, fixtureFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", file, err)
	}
	return &Package{
		Path:   path,
		Module: "repro",
		Fset:   fixtureFset,
		Files:  []*ast.File{f},
		Types:  tpkg,
		Info:   info,
	}
}

// expectation is one "// want rule[@offset]" marker resolved to a line.
type expectation struct {
	line int
	rule string
}

func wantedFindings(t *testing.T, p *Package) []expectation {
	t.Helper()
	var out []expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				for _, tok := range strings.Fields(rest) {
					rule, offs, hasOff := strings.Cut(tok, "@")
					exp := expectation{line: line, rule: rule}
					if hasOff {
						d, err := strconv.Atoi(offs)
						if err != nil {
							t.Fatalf("bad want offset %q", tok)
						}
						exp.line += d
					}
					out = append(out, exp)
				}
			}
		}
	}
	return out
}

func sortedExpectations(es []expectation) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%d:%s", e.line, e.rule)
	}
	sort.Strings(out)
	return out
}

// runFixtureDir checks every fixture file under testdata/<rule> against
// its // want markers, running only the analyzer under test (plus the
// ignore machinery, whose findings carry rule "ignore").
func runFixtureDir(t *testing.T, a Analyzer) {
	dir := filepath.Join("testdata", a.Name())
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixtures: %v", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			p := loadFixture(t, filepath.Join(dir, e.Name()))
			findings := Run([]*Package{p}, []Analyzer{a})
			var got []expectation
			for _, f := range findings {
				got = append(got, expectation{line: f.Pos.Line, rule: f.Rule})
			}
			want := wantedFindings(t, p)
			gs, ws := sortedExpectations(got), sortedExpectations(want)
			if strings.Join(gs, " ") != strings.Join(ws, " ") {
				t.Errorf("findings mismatch\n got: %v\nwant: %v\nfull findings:", gs, ws)
				for _, f := range findings {
					t.Logf("  %s", f)
				}
			}
		})
	}
}

func TestNoDetermFixtures(t *testing.T)         { runFixtureDir(t, NoDeterm{}) }
func TestMapOrderFixtures(t *testing.T)         { runFixtureDir(t, MapOrder{}) }
func TestHarnessOnlyFixtures(t *testing.T)      { runFixtureDir(t, HarnessOnly{}) }
func TestReplicaIsolationFixtures(t *testing.T) { runFixtureDir(t, ReplicaIsolation{}) }
func TestMergeOrderFixtures(t *testing.T)       { runFixtureDir(t, MergeOrder{}) }
func TestFloatEqFixtures(t *testing.T)          { runFixtureDir(t, FloatEq{}) }
func TestPanicMsgFixtures(t *testing.T)         { runFixtureDir(t, PanicMsg{}) }
func TestUnitSafeFixtures(t *testing.T)         { runFixtureDir(t, UnitSafe{}) }
func TestHotAllocFixtures(t *testing.T)         { runFixtureDir(t, &HotAlloc{}) }

// TestUnitSafeTable drives the unitsafe analyzer over synthesized
// single-function packages, one rule shape per case. The first case is
// the canonical mixing bug the rule exists for: a token count silently
// relabelled as seconds.
func TestUnitSafeTable(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int // unitsafe findings
	}{
		{"seconds-plus-tokens", `func f(s units.Seconds, n units.Tokens) units.Seconds { return s + units.Seconds(n) }`, 1},
		{"tokens-from-seconds", `func f(s units.Seconds) units.Tokens { return units.Tokens(s) }`, 1},
		{"bytes-from-flops", `func f(w units.FLOPs) units.Bytes { return units.Bytes(w) }`, 1},
		{"launder-float64", `func f(s units.Seconds) float64 { return float64(s) }`, 1},
		{"launder-int", `func f(n units.Tokens) int { return int(n) }`, 1},
		{"float-escape-ok", `func f(s units.Seconds) float64 { return s.Float() }`, 0},
		{"ratio-ok", `func f(a, b units.Seconds) float64 { return units.Ratio(a, b) }`, 0},
		{"div-unit-by-unit", `func f(a, b units.Seconds) units.Seconds { return a / b }`, 1},
		{"mul-unit-by-unit", `func f(a, b units.Seconds) units.Seconds { return a * b }`, 1},
		{"scale-by-const-ok", `func f(a units.Seconds) units.Seconds { return a * 2 }`, 0},
		{"div-by-const-ok", `func f(a units.Seconds) units.Seconds { return a / 4 }`, 0},
		{"raw-literal-arg", "func g(d units.Seconds) units.Seconds { return d }\nfunc f() units.Seconds { return g(0.25) }", 1},
		{"negative-literal-arg", "func g(d units.Seconds) units.Seconds { return d }\nfunc f() units.Seconds { return g(-3) }", 1},
		{"zero-literal-ok", "func g(d units.Seconds) units.Seconds { return d }\nfunc f() units.Seconds { return g(0) }", 0},
		{"constructed-arg-ok", "func g(d units.Seconds) units.Seconds { return d }\nfunc f() units.Seconds { return g(units.Seconds(0.25)) }", 0},
		{"named-const-arg-ok", "const warmup = 0.25\nfunc g(d units.Seconds) units.Seconds { return d }\nfunc f() units.Seconds { return g(warmup) }", 0},
		{"same-type-conversion-ok", `func f(s units.Seconds) units.Seconds { return units.Seconds(s) }`, 0},
		{"construct-from-float-ok", `func f(x float64) units.Seconds { return units.Seconds(x) }`, 0},
		{"append-literal-to-unit-slice", `func f(xs []units.Seconds) []units.Seconds { return append(xs, 0.2) }`, 1},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "package fixture\n\nimport \"repro/internal/units\"\n\n" + c.body + "\n"
			p := loadFixtureSource(t, fmt.Sprintf("unitsafe_table_%d.go", i), src)
			got := UnitSafe{}.Check(p)
			if len(got) != c.want {
				t.Errorf("%d findings, want %d", len(got), c.want)
				for _, f := range got {
					t.Logf("  %s", f)
				}
			}
		})
	}
}

// TestUnitSafeSkipsUnitsPackage pins the one scope exemption: the units
// package itself may look underneath its types.
func TestUnitSafeSkipsUnitsPackage(t *testing.T) {
	src := "//linttest:path repro/internal/units\npackage units\n\n" +
		"type Seconds float64\n" +
		"func (s Seconds) Float() float64 { return float64(s) }\n"
	p := loadFixtureSource(t, "unitsafe_selfscope.go", src)
	if got := (UnitSafe{}).Check(p); len(got) != 0 {
		t.Errorf("%d findings inside internal/units, want 0: %v", len(got), got)
	}
}

// TestSuppressionPerRule drives every analyzer through one minimal
// violation twice: bare (the rule must fire) and with a //lint:ignore
// directive on the line above (the finding must come back Suppressed and
// be dropped by Run).
func TestSuppressionPerRule(t *testing.T) {
	cases := []struct {
		rule     string // rule expected to fire
		ignoreAs string // rule name written in the directive
		src      string
	}{
		{"nodeterm", "nodeterm", `package fixture

import "time"

func f() int64 {
	return time.Now().UnixNano()
}
`},
		{"maporder", "maporder", `package fixture

func f(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}
`},
		{"harnessonly", "harnessonly", `package fixture

func f(fn func()) {
	go fn()
}
`},
		{"replicaisolation", "replicaisolation", `package fixture

import "repro/internal/forkjoin"

var total int

func f(n int) {
	forkjoin.Do(n, 0, func(i int) {
		total++
	})
}
`},
		{"mergeorder", "mergeorder", `package fixture

import "repro/internal/forkjoin"

func f(items []int) []int {
	var results []int
	forkjoin.Do(len(items), 0, func(i int) {
		results = append(results, items[i])
	})
	return results
}
`},
		{"floateq", "floateq", `package fixture

func f(a, b float64) bool {
	return a == b
}
`},
		{"panicmsg", "panicmsg", `package fixture

func f() {
	panic("unreachable")
}
`},
		{"unitsafe", "unitsafe", `package fixture

import "repro/internal/units"

func f(s units.Seconds, n units.Tokens) units.Seconds {
	return s + units.Seconds(n)
}
`},
		{"hotalloc", "hotalloc", `package fixture

//bullet:hotpath
func f(n int) []int {
	out := []int{}
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
`},
	}
	countRule := func(fs []Finding, rule string, suppressed bool) int {
		n := 0
		for _, f := range fs {
			if f.Rule == rule && f.Suppressed == suppressed {
				n++
			}
		}
		return n
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%s-as-%s", c.rule, c.ignoreAs), func(t *testing.T) {
			bare := loadFixtureSource(t, fmt.Sprintf("suppress_bare_%d.go", i), c.src)
			fired := countRule(Run([]*Package{bare}, DefaultAnalyzers()), c.rule, false)
			if fired == 0 {
				t.Fatalf("bare snippet produced no %s findings", c.rule)
			}
			// Insert the directive immediately above every line the rule
			// fired on, then re-run: every finding must be suppressed.
			all := RunAll([]*Package{bare}, DefaultAnalyzers())
			lines := strings.Split(c.src, "\n")
			marked := map[int]bool{}
			for _, f := range all {
				if f.Rule == c.rule {
					marked[f.Pos.Line] = true
				}
			}
			var out []string
			for ln, text := range lines {
				if marked[ln+1] {
					indent := text[:len(text)-len(strings.TrimLeft(text, " \t"))]
					out = append(out, indent+"//lint:ignore "+c.ignoreAs+" exercising suppression")
				}
				out = append(out, text)
			}
			supp := loadFixtureSource(t, fmt.Sprintf("suppress_dir_%d.go", i), strings.Join(out, "\n"))
			after := RunAll([]*Package{supp}, DefaultAnalyzers())
			if n := countRule(after, c.rule, false); n != 0 {
				t.Fatalf("%d %s findings survived the //lint:ignore %s directive: %v", n, c.rule, c.ignoreAs, after)
			}
			if n := countRule(after, c.rule, true); n != fired {
				t.Fatalf("RunAll reports %d suppressed %s findings, want %d", n, c.rule, fired)
			}
		})
	}
}

// TestFixtureCoverage enforces the testdata contract: every analyzer has
// at least one known-bad fixture that yields findings and at least one
// known-good fixture that yields none.
func TestFixtureCoverage(t *testing.T) {
	for _, a := range DefaultAnalyzers() {
		dir := filepath.Join("testdata", a.Name())
		for _, kind := range []string{"bad.go", "good.go"} {
			p := loadFixture(t, filepath.Join(dir, kind))
			n := len(a.Check(p))
			if kind == "bad.go" && n < 2 {
				t.Errorf("%s/bad.go: %d findings, want >= 2", a.Name(), n)
			}
			if kind == "good.go" && n != 0 {
				t.Errorf("%s/good.go: %d findings, want 0", a.Name(), n)
			}
		}
	}
}

// TestRepoTreeClean is the integration gate: the analyzer suite must
// report zero findings on the repository's own source tree. This is the
// same check `go run ./cmd/bulletlint ./...` performs in CI.
func TestRepoTreeClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	pkgs, err := LoadModule(root, nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing parts of the tree", len(pkgs))
	}
	for _, f := range Run(pkgs, DefaultAnalyzers()) {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestLoaderScopes spot-checks package classification, which every
// path-scoped rule depends on.
func TestLoaderScopes(t *testing.T) {
	mk := func(path string) *Package { return &Package{Path: path, Module: "repro"} }
	cases := []struct {
		path                   string
		internal, core, cmdish bool
	}{
		{"repro", false, false, false},
		{"repro/bullet", false, false, false},
		{"repro/internal/sim", true, true, false},
		{"repro/internal/sched", true, true, false},
		{"repro/internal/faults", true, true, false},
		{"repro/internal/timeline", true, true, false},
		{"repro/internal/pressure", true, true, false},
		{"repro/internal/kvcache", true, true, false},
		{"repro/internal/qos", true, true, false},
		{"repro/internal/resilience", true, true, false},
		{"repro/internal/serving", true, false, false},
		{"repro/internal/baselines/nanoflow", true, false, false},
		{"repro/cmd/bulletlint", false, false, true},
		{"repro/examples/quickstart", false, false, true},
	}
	for _, c := range cases {
		p := mk(c.path)
		if p.InInternal() != c.internal || p.InCore() != c.core || p.InCmdOrExamples() != c.cmdish {
			t.Errorf("%s: internal=%v core=%v cmdish=%v, want %v %v %v",
				c.path, p.InInternal(), p.InCore(), p.InCmdOrExamples(),
				c.internal, c.core, c.cmdish)
		}
	}
}
