package gpusim

import "repro/internal/units"

// LatencyBackend is the pluggable per-kernel latency model of a GPU: the
// fidelity point that turns a resident kernel into an execution-rate
// demand. The fluid simulator owns concurrency (membership changes,
// bandwidth water-filling, completion rescheduling); the backend owns how
// fast one kernel would run under the current mix.
//
// Contract (DESIGN.md §15):
//
//   - Determinism: Begin/Demand must be pure in (GPU state, launch,
//     backend state). Any randomness must come from a seeded stream owned
//     by the backend (splitmix via forkjoin.ForkSeed), advanced only in
//     Begin so replays are reproducible launch-for-launch.
//   - Units: Demand returns a progress rate (fraction of the kernel per
//     second) and the DRAM bandwidth consumed at that rate; the simulator
//     may throttle the rate when total bandwidth demand exceeds the
//     device peak, scaling progress and bandwidth together.
//   - Demand is called at every rate recomputation, i.e. on every kernel
//     start and finish while the kernel is resident; it must not mutate
//     backend state (only Begin may).
//   - Demand reads the kernel's compute share from l.meff, which
//     recompute fills for the current resident set and SM health before
//     it calls any backend. Backends must not recompute it.
type LatencyBackend interface {
	// Name identifies the backend ("analytic", "sampled", "hierarchy").
	Name() string
	// Begin fires once when a kernel becomes resident, before the first
	// Demand call. Backends that fix per-execution state — e.g. a
	// sampled latency draw — do it here.
	Begin(g *GPU, l *launch)
	// Demand returns the kernel's current nominal progress rate and the
	// bandwidth it would consume at that rate, before device-wide
	// bandwidth arbitration.
	Demand(g *GPU, l *launch) KernelDemand
}

// KernelDemand is one resident kernel's instantaneous execution demand:
// the progress rate it would sustain with unlimited DRAM bandwidth, the
// bandwidth it consumes at that rate, and the effective DRAM volume one
// full execution moves — the denominator the water-filling uses to
// convert a granted bandwidth share back into a progress rate when the
// kernel is throttled. Backends that inflate memory traffic (extra cache
// misses) report Volume > Kernel.Bytes so throttled progress slows
// proportionally.
type KernelDemand struct {
	Rate   units.PerSec
	BW     units.BytesPerSec
	Volume units.Bytes
}

// Backend name constants, shared with core.Options and the CLIs.
const (
	BackendAnalytic  = "analytic"
	BackendSampled   = "sampled"
	BackendHierarchy = "hierarchy"
)

// AnalyticBackend is the default latency model: the roofline fluid model
// (solo rate from the kernel's SM allocation, wave quantization, co-run
// penalties) that the simulator used before backends became pluggable.
// It is stateless; its Demand is byte-identical to the pre-refactor
// inline computation.
type AnalyticBackend struct{}

// Name implements LatencyBackend.
func (AnalyticBackend) Name() string { return BackendAnalytic }

// Begin implements LatencyBackend; the analytic model has no
// per-execution state.
func (AnalyticBackend) Begin(*GPU, *launch) {}

// Demand implements LatencyBackend with the analytic fluid model.
func (AnalyticBackend) Demand(g *GPU, l *launch) KernelDemand {
	nominal, _ := g.soloRate(l, l.meff, g.overlapFraction(l))
	return KernelDemand{Rate: nominal, BW: l.k.Bytes.AtRate(nominal), Volume: l.k.Bytes}
}
