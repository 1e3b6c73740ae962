package calib

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/units"
)

func TestParseTraceBasic(t *testing.T) {
	in := `# profiled on a100, 108 SMs
op qkv
128 0.000213
256 0.000391

op attn
	128	0.000457
`
	rows, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{Op: "qkv", Tokens: 128, Latency: 0.000213},
		{Op: "qkv", Tokens: 256, Latency: 0.000391},
		{Op: "attn", Tokens: 128, Latency: 0.000457},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %+v, want %+v", rows, want)
	}
}

// TestParseTraceErrors: every malformed-input class is rejected with an
// error naming the offending 1-based line — the contextual-parse-error
// contract FuzzCalibParse stresses with arbitrary input.
func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"op header arity", "op qkv extra\n", `line 1: want "op <name>"`},
		{"duplicate operator", "op qkv\n128 0.1\nop attn\n1 0.1\nop qkv\n", `line 5: duplicate operator "qkv"`},
		{"sample before header", "# hi\n\n128 0.0002\n", `line 3: sample "128 0.0002" before any "op <name>" header`},
		{"sample arity", "op qkv\n128 0.1 0.2\n", `line 2: want "<tokens> <latency>"`},
		{"bad token count", "op qkv\nx 0.1\n", `line 2: bad token count "x"`},
		{"zero tokens", "op qkv\n0 0.1\n", "line 2: non-positive token count 0"},
		{"negative tokens", "op qkv\n-4 0.1\n", "line 2: non-positive token count -4"},
		{"bad latency", "op qkv\n128 fast\n", `line 2: bad latency "fast"`},
		{"nan latency", "op qkv\n128 NaN\n", `operator "qkv": non-finite latency NaN`},
		{"inf latency", "op qkv\n128 +Inf\n", `operator "qkv": non-finite latency +Inf`},
		{"negative latency", "op qkv\n128 -0.25\n", `operator "qkv": non-positive latency -0.25`},
		{"zero latency", "op qkv\n128 0\n", `operator "qkv": non-positive latency 0`},
		{"oversized line", "op qkv\n128 0." + strings.Repeat("0", maxTraceLine) + "1\n", "line 2:"},
	}
	for _, c := range cases {
		_, err := ParseTrace(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "calib: line ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %q, want prefix \"calib: line \" and substring %q", c.name, err, c.want)
		}
	}
}

func TestFormatTraceRoundTrip(t *testing.T) {
	rows := []Row{
		{Op: "qkv", Tokens: 128, Latency: 0.000213},
		{Op: "attn", Tokens: 128, Latency: 0.000457},
		{Op: "qkv", Tokens: 256, Latency: 0.000391},
		{Op: "attn", Tokens: 512, Latency: 0.0013},
	}
	back, err := ParseTrace(strings.NewReader(FormatTrace(rows)))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	// FormatTrace groups under sorted op headers, keeping per-op order.
	want := []Row{rows[1], rows[3], rows[0], rows[2]}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("round trip = %+v, want %+v", back, want)
	}
}

func TestFitBasic(t *testing.T) {
	rows := []Row{
		{Op: "gemm", Tokens: 64, Latency: 1e-4},
		{Op: "gemm", Tokens: 64, Latency: 3e-4},
		{Op: "gemm", Tokens: 64, Latency: 2e-4},
		{Op: "gemm", Tokens: 256, Latency: 4e-4},
		{Op: "gemm", Tokens: 256, Latency: 8e-4},
	}
	table, err := Fit(rows, FitOptions{RefSMs: 8, Quantiles: 3, Winsor: 0})
	if err != nil {
		t.Fatal(err)
	}
	if table.RefSMs != 8 {
		t.Errorf("RefSMs = %d, want 8", table.RefSMs)
	}
	sup := table.Ops["gemm"]
	if len(sup) != 2 || sup[0].Tokens != 64 || sup[1].Tokens != 256 {
		t.Fatalf("supports = %+v, want tokens 64 and 256", sup)
	}
	// Winsor 0, 3 quantiles over {1,2,3}e-4: exact min/median/max.
	wantQ := []units.Seconds{1e-4, 2e-4, 3e-4}
	if !reflect.DeepEqual(sup[0].Q, wantQ) {
		t.Errorf("Q(64) = %v, want %v", sup[0].Q, wantQ)
	}
	if err := table.Validate(); err != nil {
		t.Errorf("fitted table invalid: %v", err)
	}
}

// TestFitIsotonic: a larger token bucket whose samples undercut a smaller
// bucket is floored to it, so sampling stays monotone in tokens.
func TestFitIsotonic(t *testing.T) {
	rows := []Row{
		{Op: "gemm", Tokens: 64, Latency: 5e-4},
		{Op: "gemm", Tokens: 256, Latency: 1e-4}, // inversion: faster at more tokens
	}
	table, err := Fit(rows, FitOptions{RefSMs: 8, Quantiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	sup := table.Ops["gemm"]
	for j, q := range sup[1].Q {
		if q < sup[0].Q[j] {
			t.Errorf("quantile %d: tokens 256 (%v) below tokens 64 (%v) after isotonic fit", j, q, sup[0].Q[j])
		}
	}
}

func TestFitErrors(t *testing.T) {
	good := []Row{{Op: "gemm", Tokens: 64, Latency: 1e-4}}
	cases := []struct {
		name string
		rows []Row
		opts FitOptions
		want string
	}{
		{"no refsms", good, FitOptions{}, "non-positive RefSMs"},
		{"tiny grid", good, FitOptions{RefSMs: 8, Quantiles: 1}, "quantile grid 1 too small"},
		{"bad winsor", good, FitOptions{RefSMs: 8, Winsor: 0.3}, "winsor fraction 0.3 outside"},
		{"no rows", nil, FitOptions{RefSMs: 8}, "no rows"},
		{"empty op", []Row{{Tokens: 1, Latency: 1}}, FitOptions{RefSMs: 8}, "row 0: empty operator"},
		{"bad tokens", []Row{{Op: "a", Tokens: 0, Latency: 1}}, FitOptions{RefSMs: 8}, "row 0: operator \"a\": non-positive tokens"},
		{"bad latency", []Row{{Op: "a", Tokens: 1, Latency: -1}}, FitOptions{RefSMs: 8}, "row 0: operator \"a\": bad latency"},
	}
	for _, c := range cases {
		_, err := Fit(c.rows, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestSelfCalibrate: the self-calibration sweep yields a valid table on
// the paper's platform, referenced to the device's full SM count, and is
// deterministic call over call (it backs the memoized
// core.FittedLatencyTable shared across replicas).
func TestSelfCalibrate(t *testing.T) {
	cfg := model.Llama31_8B()
	spec := gpusim.A100()
	table, err := SelfCalibrate(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(); err != nil {
		t.Fatalf("self-calibrated table invalid: %v", err)
	}
	if table.RefSMs != spec.NumSMs {
		t.Errorf("RefSMs = %d, want %d", table.RefSMs, spec.NumSMs)
	}
	if len(table.Ops) < 5 {
		t.Errorf("only %d operators calibrated, want the model's kernel set", len(table.Ops))
	}
	again, err := SelfCalibrate(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(table, again) {
		t.Error("two self-calibrations diverged")
	}
}
