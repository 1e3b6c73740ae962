// Command bulletlint enforces the determinism and unit-safety contracts
// of the simulation core (DESIGN.md, "Determinism contract" and
// "Unit-safety contract"). It loads every non-test package in the module
// with the pure-stdlib loader in internal/lint, runs the analyzer suite,
// and prints findings as
//
//	file:line: [rule] message
//
// Usage:
//
//	go run ./cmd/bulletlint ./...            # whole module
//	go run ./cmd/bulletlint ./internal/...   # one subtree
//	go run ./cmd/bulletlint -list            # show the rules and exit
//	go run ./cmd/bulletlint -json ./...      # one JSON object per finding
//	go run ./cmd/bulletlint -rules maporder,unitsafe ./...  # run a subset
//
// -rules selects a comma-separated subset of the suite; unknown names
// are a usage error (exit 2).
//
// With -json each finding is one object per line — {"file", "line",
// "rule", "message", "suppressed"} — and findings silenced by
// //lint:ignore directives are included with "suppressed": true (they
// never affect the exit code), so tooling can audit what the ignores
// hide.
//
// Exit codes: 0 no findings, 1 findings reported, 2 load/usage error.
// Individual findings can be suppressed with a `//lint:ignore rule
// reason` comment on the offending line or the line above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire shape, one object per output line.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Rule       string `json:"rule"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzer rules and exit")
	jsonOut := fs.Bool("json", false, "print one JSON object per finding (suppressed findings included)")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bulletlint [-list] [-json] [-rules r1,r2] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.DefaultAnalyzers()
	if *rules != "" {
		selected, err := selectRules(analyzers, *rules)
		if err != nil {
			return fatal(stderr, err)
		}
		analyzers = selected
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return fatal(stderr, err)
	}
	// Patterns are interpreted relative to the module root; translate
	// patterns given from a subdirectory.
	patterns := fs.Args()
	if rel, err := filepath.Rel(root, cwd); err == nil && rel != "." {
		for i, p := range patterns {
			patterns[i] = filepath.ToSlash(filepath.Join(rel, p))
		}
	}

	pkgs, err := lint.LoadModule(root, patterns)
	if err != nil {
		return fatal(stderr, err)
	}
	if len(patterns) > 0 && len(pkgs) == 0 {
		return fatal(stderr, fmt.Errorf("no packages match %v", patterns))
	}
	findings := lint.RunAll(pkgs, analyzers)
	enc := json.NewEncoder(stdout)
	reported := 0
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			rel = f.Pos.Filename
		}
		switch {
		case *jsonOut:
			if err := enc.Encode(jsonFinding{
				File: rel, Line: f.Pos.Line, Rule: f.Rule,
				Message: f.Msg, Suppressed: f.Suppressed,
			}); err != nil {
				return fatal(stderr, err)
			}
		case !f.Suppressed:
			fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", rel, f.Pos.Line, f.Rule, f.Msg)
		}
		if !f.Suppressed {
			reported++
		}
	}
	if reported > 0 {
		fmt.Fprintf(stderr, "bulletlint: %d finding(s)\n", reported)
		return 1
	}
	return 0
}

// selectRules resolves a comma-separated rule selection against the
// suite, preserving suite order and deduplicating. Unknown names are an
// error.
func selectRules(all []lint.Analyzer, spec string) ([]lint.Analyzer, error) {
	byName := map[string]lint.Analyzer{}
	for _, a := range all {
		byName[a.Name()] = a
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("unknown rule %q (see -list)", name)
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty -rules selection")
	}
	var out []lint.Analyzer
	for _, a := range all {
		if want[a.Name()] {
			out = append(out, a)
		}
	}
	return out, nil
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "bulletlint: %v\n", err)
	return 2
}
