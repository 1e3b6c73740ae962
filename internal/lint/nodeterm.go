package lint

import (
	"fmt"
	"go/ast"
)

// NoDeterm forbids sources of nondeterminism in internal packages: wall
// clock reads (time.Now and friends), the globally-seeded math/rand
// top-level functions, and environment lookups. Simulated components must
// take time from the sim clock and randomness from an explicitly seeded
// *rand.Rand, so every run of an experiment is bit-reproducible.
//
// Constructors that merely build deterministic sources (rand.New,
// rand.NewSource, rand.NewZipf, ...) are allowed; it is the implicitly
// shared global state and the host clock/environment that are banned.
// cmd/ mains and examples/ are out of scope — they talk to the real world
// by design — EXCEPT inside forkjoin.Do/Map task bodies, which are
// checked everywhere: a forked task drawing from the wall clock or the
// global rand source reintroduces scheduler-dependent results that the
// fork/join harness exists to rule out. Task bodies additionally may not
// iterate maps at all — per-goroutine map iteration order differs even
// between runs of the same schedule — so results must flow through
// sorted keys or index-addressed slices (randomness through
// forkjoin.ForkSeed).
type NoDeterm struct{}

func (NoDeterm) Name() string { return "nodeterm" }

func (NoDeterm) Doc() string {
	return "forbid wall-clock time, global math/rand, and os.Getenv in internal packages, plus map iteration in forked task bodies"
}

// forbiddenFuncs maps package path -> function name -> the reason shown in
// the finding.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now":       "use the simulated clock (sim.Simulation.Now)",
		"Since":     "use the simulated clock (sim.Simulation.Now)",
		"Until":     "use the simulated clock (sim.Simulation.Now)",
		"Sleep":     "schedule a sim event (sim.Simulation.PostAfter) instead",
		"After":     "schedule a sim event (sim.Simulation.PostAfter) instead",
		"Tick":      "schedule recurring sim events instead",
		"NewTimer":  "schedule a sim event (sim.Simulation.PostAfter) instead",
		"NewTicker": "schedule recurring sim events instead",
		"AfterFunc": "schedule a sim event (sim.Simulation.PostAfter) instead",
	},
	"os": {
		"Getenv":    "plumb configuration explicitly; the environment is host state",
		"LookupEnv": "plumb configuration explicitly; the environment is host state",
		"Environ":   "plumb configuration explicitly; the environment is host state",
	},
}

// randConstructors are the math/rand package-level functions that return
// an explicit, seedable source — the deterministic way to use the package.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 additions
	"NewPCG": true, "NewChaCha8": true,
}

func (NoDeterm) Check(p *Package) []Finding {
	internal := p.InInternal()
	var out []Finding
	for _, file := range p.Files {
		lits := forkTaskLits(p, file)
		if !internal && len(lits) == 0 {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok && inAny(lits, rng.Pos()) && isMapType(p, rng.X) {
				out = append(out, Finding{
					Pos:  p.Fset.Position(rng.Pos()),
					Rule: "nodeterm",
					Msg:  "map iteration inside a forked task body: per-goroutine iteration order is nondeterministic; sort the keys or index a slice",
				})
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !internal && !inAny(lits, sel.Pos()) {
				return true
			}
			obj := useOf(p, sel)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkgPath, name := obj.Pkg().Path(), obj.Name()
			if fns, ok := forbiddenFuncs[pkgPath]; ok {
				if why, bad := fns[name]; bad && pkgFunc(obj, pkgPath, name) {
					out = append(out, Finding{
						Pos:  p.Fset.Position(sel.Pos()),
						Rule: "nodeterm",
						Msg:  fmt.Sprintf("%s.%s is nondeterministic: %s", pkgPath, name, why),
					})
				}
				return true
			}
			if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") &&
				!randConstructors[name] && pkgFunc(obj, pkgPath, name) {
				out = append(out, Finding{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: "nodeterm",
					Msg: fmt.Sprintf("%s.%s uses the shared global source: draw from an explicitly seeded *rand.Rand",
						pkgPath, name),
				})
			}
			return true
		})
	}
	return out
}
