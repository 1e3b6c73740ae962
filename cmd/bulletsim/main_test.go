package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goldenRun drives run() in-process and compares its stdout byte for
// byte against a checked-in capture. The goldens were recorded before
// the latency-backend refactor (DESIGN.md §15), so these tests pin the
// analytic extraction to the pre-refactor output: any float reorder in
// the fluid model, the scheduler, or the renderers shows up as a diff.
func goldenRun(t *testing.T, args []string, golden string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run(%v) exit %d, want 0\nstderr: %s", args, code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("run(%v) output diverged from testdata/%s:\ngot:\n%s\nwant:\n%s",
			args, golden, out.String(), want)
	}
}

// goldens are the checked-in captures of run(). Rows marked parallel
// also run at -workers 4 under GOMAXPROCS(4) and must match the same
// file: the serial ≡ parallel contract (DESIGN.md §11), which the -race
// test pass then checks under the race detector too.
var goldens = []struct {
	name     string
	args     []string
	parallel bool
}{
	{"default", nil, false},
	{"pressure", []string{"-exp", "ext-pressure", "-dataset", "azure-code", "-rate", "4", "-n", "60", "-seed", "11"}, false},
	{"qos", []string{"-exp", "ext-qos", "-dataset", "azure-code", "-rate", "10", "-n", "120", "-seed", "11", "-workers", "1"}, true},
	{"chaos", []string{"-exp", "ext-chaos", "-dataset", "azure-code", "-rate", "10", "-n", "120", "-seed", "7", "-workers", "1"}, true},
	{"cluster", []string{"-exp", "ext-cluster", "-workers", "1", "-dataset", "azure-code", "-rate", "8", "-n", "80", "-seed", "7"}, true},
}

func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			goldenRun(t, g.args, g.name+".golden")
		})
		if !g.parallel {
			continue
		}
		t.Run(g.name+"-workers4", func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			// A repeated flag overrides the earlier -workers 1.
			goldenRun(t, append(g.args[:len(g.args):len(g.args)], "-workers", "4"), g.name+".golden")
		})
	}
}

// TestGoldenQuickstart pins the README's quickstart example — the first
// output any user sees — byte for byte.
func TestGoldenQuickstart(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quickstart.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./examples/quickstart")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/quickstart: %v\n%s", err, out)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("quickstart output diverged from testdata/quickstart.golden:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestBackendSampledReplay: two same-flag runs on the sampled backend
// must render byte-identical output (the draw stream is a pure function
// of -backend-seed), and must not silently fall back to the analytic
// numbers.
func TestBackendSampledReplay(t *testing.T) {
	args := []string{"-backend", "sampled", "-dataset", "azure-code", "-rate", "4", "-n", "40"}
	var a, b, errb bytes.Buffer
	if code := run(args, &a, &errb); code != 0 {
		t.Fatalf("run 1 exit %d\nstderr: %s", code, errb.String())
	}
	if code := run(args, &b, &errb); code != 0 {
		t.Fatalf("run 2 exit %d\nstderr: %s", code, errb.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("sampled backend replay diverged:\nrun1:\n%s\nrun2:\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "bullet+sampled") {
		t.Errorf("sampled run did not report the sampled system name:\n%s", a.String())
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "no-such-id"}, &out, &errb); code != 1 {
		t.Fatalf("unknown experiment exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), `unknown experiment "no-such-id"`) || !strings.Contains(errb.String(), "ext-qos") {
		t.Errorf("stderr = %q, want the unknown id and the valid ids", errb.String())
	}
}

func TestBackendFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "bogus"}, &out, &errb); code != 1 {
		t.Fatalf("bogus backend exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown backend") {
		t.Errorf("stderr = %q, want unknown-backend error", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-backend", "sampled", "-system", "vllm-1024"}, &out, &errb); code != 1 {
		t.Fatalf("baseline+backend exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "requires a Bullet variant") {
		t.Errorf("stderr = %q, want Bullet-variant error", errb.String())
	}
}
