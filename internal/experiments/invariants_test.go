package experiments

import (
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// allSystems includes the paper's systems plus every variant the registry
// knows.
var allSystems = []string{
	"bullet", "bullet-naive", "bullet-partition", "bullet-scheduler",
	"bullet-prefix", "bullet-sm84",
	"vllm-1024", "sglang-1024", "sglang-2048", "nanoflow-1024",
	"disagg-nvlink", "disagg-pcie",
}

// TestEverySystemConservesTokens runs every registered system on a small
// trace of every dataset and checks structural invariants: all requests
// complete exactly once with valid timelines, token counts are conserved,
// and the KV pool drains (the harness enforces the last one).
func TestEverySystemConservesTokens(t *testing.T) {
	for _, d := range workload.Datasets {
		trace := workload.Generate(d, 2, 15, 99)
		for _, sys := range allSystems {
			sys := sys
			t.Run(d.Name+"/"+sys, func(t *testing.T) {
				res := RunOne(sys, d, 2, 15, 99)
				if res.Summary.Requests != 15 {
					t.Fatalf("completed %d/15", res.Summary.Requests)
				}
				seen := map[string]bool{}
				in, out := 0, 0
				for _, r := range res.Requests {
					if seen[r.ID] {
						t.Fatalf("request %s completed twice", r.ID)
					}
					seen[r.ID] = true
					r.Validate()
					in += r.InputTokens
					out += r.OutputTokens
				}
				if in != trace.TotalInputTokens() || out != trace.TotalOutputTokens() {
					t.Fatalf("token mismatch: %d/%d vs %d/%d",
						in, out, trace.TotalInputTokens(), trace.TotalOutputTokens())
				}
			})
		}
	}
}

// TestEverySystemDeterministic re-runs each system and compares whole
// summaries.
func TestEverySystemDeterministic(t *testing.T) {
	for _, sys := range allSystems {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			a := RunOne(sys, workload.ShareGPT, 4, 12, 7)
			b := RunOne(sys, workload.ShareGPT, 4, 12, 7)
			if a.Summary != b.Summary {
				t.Fatalf("summaries differ:\n%+v\n%+v", a.Summary, b.Summary)
			}
		})
	}
}

// TestGPUWorkAccounting cross-checks that the device's accumulated FLOPs
// roughly match the analytic workload demand for a prefill-only run.
func TestGPUWorkAccounting(t *testing.T) {
	_, cfg := Platform()
	d := workload.AzureCode
	trace := &workload.Trace{Dataset: d.Name, Rate: 1}
	var demand units.FLOPs
	for i := 0; i < 5; i++ {
		in := 1024 * (i + 1)
		trace.Requests = append(trace.Requests, workload.Request{
			ID: itoa(i), Arrival: units.Seconds(float64(i) * 2), InputTokens: in, OutputTokens: 1,
			Dataset: d.Name,
		})
		w := cfg.PrefillWork(in, 0)
		demand += w.FLOPs
		demand += cfg.LMHeadKernel(1, "").FLOPs
	}
	res := MustBuild(Spec{System: "bullet", Dataset: d}).Run(trace)
	got := res.GPUStats.FLOPs
	// Requests may batch (shared LM head rows), so allow a few percent.
	if got < demand*0.9 || got > demand*1.1 {
		t.Fatalf("device FLOPs %.3g vs demand %.3g", got, demand)
	}
}
