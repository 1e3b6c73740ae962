package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the process into dir for one test. The test binary starts
// in cmd/bulletlint, so module-rooted paths need ../../ from here.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// dirtyModule writes a throwaway module with one known-bad internal
// package: two nodeterm violations, one of them suppressed, so every
// exit-code and JSON path is exercised from a single fixture.
func dirtyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module tmpmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "demo", "demo.go"), `package demo

import "time"

// Stamp leaks wall-clock time into what should be simulated time.
func Stamp() time.Time { return time.Now() }

//lint:ignore nodeterm CLI test fixture exercising suppression reporting
func Suppressed() time.Time { return time.Now() }
`)
	return dir
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunCleanTreeExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	// A small always-clean subtree keeps the test fast; the whole-module
	// gate is TestRepoTreeClean in internal/lint.
	if code := run([]string{"../../internal/units"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed findings: %s", out.String())
	}
}

func TestRunFindingsExitOne(t *testing.T) {
	chdir(t, dirtyModule(t))
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[nodeterm]") {
		t.Errorf("stdout missing nodeterm finding:\n%s", out.String())
	}
	// The suppressed finding must not be printed in text mode, and the
	// count on stderr reflects only the reported one.
	if got := strings.Count(out.String(), "[nodeterm]"); got != 1 {
		t.Errorf("%d findings printed, want 1 (suppressed hidden)", got)
	}
	if !strings.Contains(errb.String(), "1 finding(s)") {
		t.Errorf("stderr = %q, want 1 finding(s)", errb.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	chdir(t, dirtyModule(t))
	var out, errb bytes.Buffer
	if code := run([]string{"-json"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	var suppressed, reported int
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not a JSON object: %q: %v", line, err)
		}
		if f.File == "" || f.Line == 0 || f.Rule == "" || f.Message == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("file %q not module-relative", f.File)
		}
		if f.Suppressed {
			suppressed++
		} else {
			reported++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// JSON mode includes the ignored finding, flagged, while the exit
	// code still counts only the reported one.
	if suppressed != 1 || reported != 1 {
		t.Errorf("suppressed=%d reported=%d, want 1 and 1\n%s", suppressed, reported, out.String())
	}
}

func TestRunUsageAndLoadErrorsExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"./no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("unmatched pattern: exit %d, want 2\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no packages match") {
		t.Errorf("stderr = %q, want pattern-mismatch error", errb.String())
	}
}

// TestRulesSelection covers the -rules flag: subset selection changes
// which findings fire, and unknown names — including the retired
// nogoroutine rule — are a usage error.
func TestRulesSelection(t *testing.T) {
	chdir(t, dirtyModule(t))

	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "nodeterm"}, &out, &errb); code != 1 {
		t.Fatalf("-rules nodeterm: exit %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[nodeterm]") {
		t.Errorf("-rules nodeterm printed no nodeterm finding:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-rules", "maporder"}, &out, &errb); code != 0 {
		t.Fatalf("-rules maporder: exit %d, want 0 (nodeterm excluded)\nstderr: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("-rules maporder printed findings:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	for _, name := range []string{"nogoroutine", "nosuchrule"} {
		out.Reset()
		errb.Reset()
		if code := run([]string{"-rules", name}, &out, &errb); code != 2 {
			t.Fatalf("-rules %s: exit %d, want 2", name, code)
		}
		if !strings.Contains(errb.String(), "unknown rule") {
			t.Errorf("-rules %s: stderr = %q, want unknown-rule error", name, errb.String())
		}
	}
}

// TestListMatchesREADME is the golden link between `bulletlint -list`
// and the rules table in README.md: same rules, same order, no drift in
// either direction.
func TestListMatchesREADME(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit %d, want 0", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("-list line %q: want \"name  doc\"", line)
		}
		listed = append(listed, fields[0])
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var tabled []string
	inTable := false
	for _, line := range strings.Split(string(readme), "\n") {
		switch {
		case strings.HasPrefix(line, "| rule"):
			inTable = true
		case inTable && strings.HasPrefix(line, "| ---"):
			// separator row
		case inTable && strings.HasPrefix(line, "|"):
			cells := strings.Split(line, "|")
			if len(cells) < 3 {
				t.Fatalf("malformed README table row: %q", line)
			}
			tabled = append(tabled, strings.TrimSpace(cells[1]))
		case inTable:
			inTable = false
		}
	}
	if len(tabled) == 0 {
		t.Fatal("README.md rules table not found")
	}
	if strings.Join(listed, " ") != strings.Join(tabled, " ") {
		t.Errorf("-list rules %v != README table rules %v", listed, tabled)
	}
}
