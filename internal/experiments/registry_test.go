package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestRegistry: ids are unique and resolvable, and every runner renders
// its tables. The runs use a toy size; cmd/bulletbench's quick golden pins
// the rendered bytes at the registered parameters.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("id %q registered twice", id)
		}
		seen[id] = true
		if e, ok := Lookup(id); !ok || e.ID != id {
			t.Errorf("Lookup(%q) = %q, %v", id, e.ID, ok)
		}
	}
	if _, ok := Lookup("no-such-id"); ok {
		t.Error("Lookup found an unregistered id")
	}

	tiny := Params{Dataset: workload.AzureCode, Rate: 4, N: 12, Seed: 3, Workers: 1, Quick: true}
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			if out := e.Run(tiny); strings.Count(out, "\n") < 3 {
				t.Errorf("rendered %q, want a titled table", out)
			}
		})
	}
}
