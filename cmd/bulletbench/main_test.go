package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designIDs extracts the experiment ids DESIGN.md promises: the ID
// column of the §3 per-experiment index (normalized "Table 1" → table1,
// "Fig. 11" → fig11, skipping rows regenerated by constants alone) and,
// in order, the backticked `ext-*` ids of the §6 extension paragraph.
func designIDs(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")

	var ids []string
	inTable := false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "| ID "):
			inTable = true
		case inTable && strings.HasPrefix(line, "|---"):
			// separator row
		case inTable && strings.HasPrefix(line, "|"):
			cells := strings.Split(line, "|")
			if len(cells) < 3 {
				t.Fatalf("malformed DESIGN.md index row: %q", line)
			}
			id := strings.TrimSpace(cells[1])
			target := strings.TrimSpace(cells[len(cells)-2])
			if target == "constants" {
				continue // Table 2 is SLO presets, nothing to regenerate
			}
			id = strings.ToLower(id)
			id = strings.ReplaceAll(id, ".", "")
			id = strings.ReplaceAll(id, " ", "")
			ids = append(ids, id)
		case inTable:
			inTable = false
		}
	}
	if len(ids) == 0 {
		t.Fatal("DESIGN.md §3 per-experiment index not found")
	}

	extRe := regexp.MustCompile("`(ext-[a-z-]+)`")
	inExt := false
	for _, line := range lines {
		if strings.HasPrefix(line, "Extension experiments (beyond the paper") {
			inExt = true
		}
		if !inExt {
			continue
		}
		for _, m := range extRe.FindAllStringSubmatch(line, -1) {
			ids = append(ids, m[1])
		}
		if strings.TrimSpace(line) == "" {
			break
		}
	}
	return ids
}

// TestListMatchesDESIGN is the golden link between `bulletbench -list`
// and DESIGN.md's §3 experiment index plus §6 extension list: same ids,
// same order, no drift in either direction.
func TestListMatchesDESIGN(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit %d, want 0\nstderr: %s", code, errb.String())
	}
	line := strings.TrimSpace(out.String())
	const prefix = "experiments: "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("-list output %q missing %q prefix", line, prefix)
	}
	listed := strings.Split(strings.TrimPrefix(line, prefix), ", ")
	want := designIDs(t)
	if strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("-list ids:\n  %v\nDESIGN.md ids:\n  %v", listed, want)
	}
}

// TestTable3WallClock: table3, the one entry the quick golden skips,
// runs through the registry with the injected host clock.
func TestTable3WallClock(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table3"}, &out, &errb); code != 0 {
		t.Fatalf("-exp table3 exit %d\nstderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "===== table3 =====\nTable 3: control-plane CPU overheads") {
		t.Errorf("table3 output:\n%s", out.String())
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "no-such-id"}, &out, &errb); code != 1 {
		t.Fatalf("unknown id exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errb.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
}

// TestUnexpectedArgumentsFail: a positional argument is an error, not
// the end of the flags. Before the check, "fig2" alone ran every
// experiment and an argument after the flags was dropped.
func TestUnexpectedArgumentsFail(t *testing.T) {
	for _, args := range [][]string{{"fig2"}, {"-exp", "fig2", "-quick", "stray"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("run(%v) exit %d, want 2\nstdout: %s", args, code, out.String())
		}
		if out.Len() != 0 || !strings.Contains(errb.String(), "bulletbench: unexpected arguments") {
			t.Errorf("run(%v) printed stdout %q, stderr %q", args, out.String(), errb.String())
		}
	}
}
