package experiments

import (
	"slices"
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
			out := e.Run(tiny)
			if strings.Count(out, "\n") < 3 {
				t.Errorf("rendered %q, want a titled table", out)
			}
			// Flags lists the parameters Run reads: changing all it does
			// not list leaves the output unchanged, and changing a listed
			// dataset or rate changes it (workers never changes output;
			// n and seed size every study that lists them).
			unlisted, perturbed := tiny, false
			for _, f := range []struct {
				flag string
				set  func(*Params)
			}{
				{"dataset", func(p *Params) { p.Dataset = workload.ShareGPT }},
				{"rate", func(p *Params) { p.Rate = 6 }},
				{"n", func(p *Params) { p.N = 14 }},
				{"seed", func(p *Params) { p.Seed = 4 }},
				{"workers", func(p *Params) { p.Workers = 2 }},
			} {
				switch {
				case !slices.Contains(e.Flags, f.flag):
					f.set(&unlisted)
					perturbed = true
				case f.flag == "dataset" || f.flag == "rate":
					p := tiny
					f.set(&p)
					if e.Run(p) == out {
						t.Errorf("-%s is listed, but changing it leaves the output unchanged", f.flag)
					}
				}
			}
			if perturbed && e.Run(unlisted) != out {
				t.Errorf("the output depends on a parameter its Flags %v do not list", e.Flags)
			}
		})
	}
}
