package calib

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/units"
)

func TestFitBasic(t *testing.T) {
	rows := []Row{
		{Op: "gemm", Tokens: 64, Latency: 3e-4},
		{Op: "gemm", Tokens: 64, Latency: 1e-4},
		{Op: "gemm", Tokens: 64, Latency: 5e-4},
		{Op: "gemm", Tokens: 64, Latency: 2e-4},
		{Op: "gemm", Tokens: 64, Latency: 4e-4},
		{Op: "gemm", Tokens: 256, Latency: 4e-4},
		{Op: "gemm", Tokens: 256, Latency: 8e-4},
	}
	table, err := Fit(rows, 8)
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
	// Five levels over five samples: min, quartiles and max land on the
	// sorted samples exactly, with no tail trimmed.
	wantQ := []units.Seconds{1e-4, 2e-4, 3e-4, 4e-4, 5e-4}
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
	table, err := Fit(rows, 8)
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
		name   string
		rows   []Row
		refSMs int
		want   string
	}{
		{"no refsms", good, 0, "non-positive RefSMs"},
		{"no rows", nil, 8, "no rows"},
		{"empty op", []Row{{Tokens: 1, Latency: 1}}, 8, "row 0: empty operator"},
		{"bad tokens", []Row{{Op: "a", Tokens: 0, Latency: 1}}, 8, "row 0: operator \"a\": non-positive tokens"},
		{"bad latency", []Row{{Op: "a", Tokens: 1, Latency: -1}}, 8, "row 0: operator \"a\": bad latency"},
	}
	for _, c := range cases {
		_, err := Fit(c.rows, c.refSMs)
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
