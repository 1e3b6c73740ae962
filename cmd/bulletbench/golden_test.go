package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestGoldenQuickSuite pins the -quick suite byte for byte: every
// registered experiment except table3, whose output is wall-clock time.
// Skipped under the race detector — the suite is pure rendering of
// already-raced experiment code and costs minutes there.
func TestGoldenQuickSuite(t *testing.T) {
	if raceEnabled {
		t.Skip("quick-suite golden skipped under -race (covered by the plain test pass)")
	}
	if testing.Short() {
		t.Skip("quick-suite golden skipped in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, id := range experiments.IDs() {
		if id != "table3" {
			ids = append(ids, id)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-exp", strings.Join(ids, ",")}, &out, &errb); code != 0 {
		t.Fatalf("quick suite exit %d\nstderr: %s", code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("quick suite diverged from testdata/quick.golden (%d vs %d bytes)",
			out.Len(), len(want))
		gotLines := strings.Split(out.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		n := len(gotLines)
		if len(wantLines) < n {
			n = len(wantLines)
		}
		for i := 0; i < n; i++ {
			if gotLines[i] != wantLines[i] {
				t.Errorf("first divergence at line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
				break
			}
		}
	}
}
