package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
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

// TestGoldenExamples pins the example programs' output byte for byte:
// the README's quickstart, the first output any user sees, and the
// burst-load timeline, which folds the recorder's scheduling events
// into series (a misnamed event argument would print zeros).
func TestGoldenExamples(t *testing.T) {
	for _, name := range []string{"quickstart", "burstload"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Dir = filepath.Join("..", "..")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s output diverged from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", name, name, out, want)
			}
		})
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

// TestInstrumentedRunFlags: -faults and -trace-out build their run
// through the same backend-aware constructor as a plain run, so a bad
// flag is a contextual error (exit 1, never a panic) and every other
// flag is honoured — the latency backend, faults inside the trace, and
// a baseline's own lanes. -exp rejects the flags it would not use, and a
// non-finite or non-positive load fails on every path before anything
// runs or is written.
func TestInstrumentedRunFlags(t *testing.T) {
	dir := t.TempDir()
	trace := func(name string) string { return filepath.Join(dir, name+".json") }
	cases := []struct {
		name  string
		args  []string
		code  int
		want  string // substring of stdout (exit 0) or stderr (exit 1)
		trace string // substring of the written trace; "" means none is written
	}{
		{"faults-unknown-system", []string{"-faults", "-system", "bogus"}, 1, `unknown system "bogus"`, ""},
		{"trace-unknown-system", []string{"-trace-out", trace("trace-unknown-system"), "-system", "bogus"}, 1, `unknown system "bogus"`, ""},
		{"faults-unknown-backend", []string{"-faults", "-backend", "bogus"}, 1, "unknown backend", ""},
		{"faults-zero-sm-static", []string{"-faults", "-system", "bullet-sm0"}, 1, `unknown system "bullet-sm0"`, ""},
		{"faults-sampled", []string{"-faults", "-backend", "sampled", "-n", "40"}, 0, "bullet+sampled (faulty", ""},
		{"trace-sampled", []string{"-trace-out", trace("trace-sampled"), "-backend", "sampled", "-n", "40"}, 0,
			"system bullet+sampled:", `"name":"alloc"`},
		{"trace-baseline-sampled", []string{"-trace-out", trace("trace-baseline-sampled"), "-system", "vllm-1024", "-backend", "sampled"}, 1,
			"requires a Bullet variant", ""},
		{"faults-baseline", []string{"-faults", "-system", "vllm-1024"}, 1, "requires a Bullet variant", ""},
		{"faults-trace", []string{"-faults", "-fault-rate", "1", "-n", "40", "-trace-out", trace("faults-trace")}, 0,
			"faults injected", `"name":"sm-degrade"`},
		{"faults-json-trace", []string{"-faults", "-json", "-n", "20", "-trace-out", trace("faults-json-trace")}, 0,
			`"Resilience"`, `"name":"alloc"`},
		{"trace-nanoflow", []string{"-trace-out", trace("trace-nanoflow"), "-system", "nanoflow-1024", "-n", "20"}, 0,
			"system nanoflow-1024:", `"name":"hybrid"`},
		{"exp-trace", []string{"-exp", "fig12", "-trace-out", trace("exp-trace"), "-n", "20"}, 1,
			"-exp does not use -trace-out", ""},
		{"exp-serving-flags", []string{"-exp", "fig15", "-faults", "-system", "vllm-1024", "-backend", "sampled", "-json"}, 1,
			"-exp does not use -backend, -faults, -json, -system", ""},
		{"exp-unread-workers", []string{"-exp", "fig13", "-workers", "4", "-n", "5"}, 1,
			"-exp does not use -workers (fig13 takes -dataset, -rate, -n, -seed, -cpuprofile, -memprofile)", ""},
		{"exp-unread-rate", []string{"-exp", "fig14", "-rate", "3", "-n", "5"}, 1,
			"-exp does not use -rate (fig14 takes -n, -seed, -cpuprofile, -memprofile)", ""},
		{"rate-nan", []string{"-rate", "NaN", "-n", "5"}, 1, "-rate must be finite", ""},
		{"rate-inf-trace", []string{"-rate", "+Inf", "-n", "5", "-trace-out", trace("rate-inf-trace")}, 1, "-rate must be finite", ""},
		{"faults-rate-nan", []string{"-rate", "NaN", "-n", "5", "-faults", "-trace-out", trace("faults-rate-nan")}, 1, "-rate must be finite", ""},
		{"fault-rate-nan", []string{"-n", "3", "-faults", "-fault-rate", "NaN", "-trace-out", trace("fault-rate-nan")}, 1, "-fault-rate must be finite", ""},
		{"fault-rate-negative", []string{"-n", "3", "-faults", "-fault-rate", "-1"}, 1, "-fault-rate must be finite", ""},
		{"exp-rate-nan", []string{"-exp", "ext-pressure", "-rate", "NaN", "-n", "5"}, 1, "-rate must be finite", ""},
		{"exp-rate-negative", []string{"-exp", "fig13", "-rate", "-3", "-n", "5"}, 1, "-rate must be finite", ""},
		{"exp-n-zero", []string{"-exp", "fig13", "-n", "0"}, 1, "-n must be > 0", ""},
		{"exp-workers-negative", []string{"-exp", "ext-chaos", "-workers", "-1", "-n", "5"}, 1, "-workers must be >= 0, got -1", ""},
		{"exp-cluster-workers-negative", []string{"-exp", "ext-cluster", "-workers", "-1", "-n", "5"}, 1, "-workers must be >= 0, got -1", ""},
		{"workers-without-exp", []string{"-workers", "4", "-n", "5"}, 1, "-workers sizes the cluster arms of -exp and needs it", ""},
		{"workers-negative-without-exp", []string{"-workers", "-3", "-n", "5"}, 1, "-workers must be >= 0, got -3", ""},
		{"static-off-grid", []string{"-system", "bullet-sm500", "-n", "5"}, 1,
			`system "bullet-sm500": 500 SMs is not an SM level of the A100-PCIe-80GB (levels [6 12 18 24 30 36 42 48 54 60 66 72 78 84 90 96 102 108])`, ""},
		{"faults-static-off-grid", []string{"-faults", "-system", "bullet-sm50", "-n", "5"}, 1,
			`system "bullet-sm50": 50 SMs is not an SM level of the A100-PCIe-80GB (levels [6 12 18 24 30 36 42 48 54 60 66 72 78 84 90 96 102 108])`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != c.code {
				t.Fatalf("run(%v) exit %d, want %d\nstdout: %s\nstderr: %s", c.args, code, c.code, out.String(), errb.String())
			}
			got := out.String()
			if c.code != 0 {
				got = errb.String()
			}
			if !strings.Contains(got, c.want) {
				t.Errorf("run(%v) printed %q, want it to contain %q", c.args, got, c.want)
			}
			if c.code == 0 && slices.Contains(c.args, "-json") && !json.Valid(out.Bytes()) {
				t.Errorf("run(%v) stdout is not one JSON document:\n%s", c.args, out.String())
			}
			path := ""
			for i, a := range c.args {
				if a == "-trace-out" {
					path = c.args[i+1]
				}
			}
			data, err := os.ReadFile(path)
			switch {
			case c.trace == "" && err == nil:
				t.Errorf("run(%v) wrote a trace", c.args)
			case c.trace != "" && err != nil:
				t.Fatalf("run(%v) wrote no trace: %v", c.args, err)
			case c.trace != "" && !bytes.Contains(data, []byte(c.trace)):
				t.Errorf("trace of run(%v) has no %s event", c.args, c.trace)
			}
		})
	}
}
