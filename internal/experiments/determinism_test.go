package experiments

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestSchedulerDoubleRunDeterminism is the regression gate behind the
// determinism contract (DESIGN.md): running the full bullet stack —
// workload generation, scheduler, resource manager, engines, GPU model —
// twice on the identical trace must produce bit-identical results, per-
// request metrics and accumulated GPU statistics included. Any wall-clock
// read, map-iteration-order leak, or scheduling tie broken
// nondeterministically shows up here as a diff.
//
// It runs cleanly under -race as well: the simulation core is
// single-threaded by contract (the harnessonly lint rule), so there is
// nothing to race.
func TestSchedulerDoubleRunDeterminism(t *testing.T) {
	for _, sys := range []string{"bullet", "bullet-naive", "sglang-1024"} {
		a := RunOne(sys, workload.AzureCode, 6, 120, 42)
		b := RunOne(sys, workload.AzureCode, 6, 120, 42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs on the same trace diverged", sys)
			if !reflect.DeepEqual(a.Summary, b.Summary) {
				t.Errorf("  summaries differ:\n  run1: %+v\n  run2: %+v", a.Summary, b.Summary)
			}
			if !reflect.DeepEqual(a.GPUStats, b.GPUStats) {
				t.Errorf("  GPU stats differ:\n  run1: %+v\n  run2: %+v", a.GPUStats, b.GPUStats)
			}
			for i := range a.Requests {
				if i < len(b.Requests) && !reflect.DeepEqual(a.Requests[i], b.Requests[i]) {
					t.Errorf("  first diverging request %d:\n  run1: %+v\n  run2: %+v",
						i, a.Requests[i], b.Requests[i])
					break
				}
			}
		}
	}
}

// TestTraceDeterminism pins down the workload generator specifically:
// identical (dataset, rate, n, seed) tuples must yield identical traces.
func TestTraceDeterminism(t *testing.T) {
	a := workload.Generate(workload.ShareGPT, 8, 200, 7)
	b := workload.Generate(workload.ShareGPT, 8, 200, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("workload.Generate is not deterministic for a fixed seed")
	}
}
