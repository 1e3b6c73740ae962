// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §4) on the simulated substrate. Each experiment has a
// typed runner returning structured rows plus a Render function producing
// the text table printed by `bulletbench` and the repository benchmarks.
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/baselines/chunked"
	"repro/internal/baselines/disagg"
	"repro/internal/baselines/nanoflow"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/serving"
	"repro/internal/workload"
)

// SystemNames lists the evaluated serving systems in the paper's order.
var SystemNames = []string{
	"bullet", "vllm-1024", "sglang-1024", "sglang-2048", "nanoflow-1024",
}

// NewSystem instantiates a serving system by name on an environment.
// Bullet ablation and static variants are addressable as
// "bullet-naive", "bullet-partition", "bullet-scheduler" and
// "bullet-sm<N>"; "bullet-gate" and "bullet-pressure" arm the
// memory-pressure subsystem (admission gate only, and gate plus decode
// preemption with recompute/retransfer recovery); "bullet-qos" stacks
// the SLO-feedback QoS controller on top of the pressure subsystem.
// An unknown name panics; NewSystemWithBackend returns it as an error.
func NewSystem(name string, env *serving.Env) serving.System {
	sys, err := NewSystemWithBackend(name, env, "", 0)
	if err != nil {
		panic(err.Error())
	}
	return sys
}

// bulletOptions resolves a Bullet variant name to its core options;
// false means the name is not a Bullet variant (a baseline or unknown).
func bulletOptions(name string) (core.Options, bool) {
	switch name {
	case "bullet":
		return core.Options{Mode: core.ModeFull}, true
	case "bullet-naive":
		return core.Options{Mode: core.ModeNaive}, true
	case "bullet-partition":
		return core.Options{Mode: core.ModePartitionOnly}, true
	case "bullet-scheduler":
		return core.Options{Mode: core.ModeSchedulerOnly}, true
	case "bullet-prefix":
		return core.Options{Mode: core.ModeFull, EnablePrefixCache: true}, true
	case "bullet-gate":
		return core.Options{Mode: core.ModeFull,
			Pressure: &pressure.Config{DisablePreemption: true}}, true
	case "bullet-pressure":
		return core.Options{Mode: core.ModeFull, Pressure: &pressure.Config{}}, true
	case "bullet-qos":
		return core.Options{Mode: core.ModeFull,
			Pressure: &pressure.Config{}, QoS: &qos.Config{}}, true
	}
	var sms int
	if n, err := fmt.Sscanf(name, "bullet-sm%d", &sms); err == nil && n == 1 && sms > 0 {
		return core.Options{Mode: core.ModeStatic, FixedPrefillSMs: sms}, true
	}
	return core.Options{}, false
}

// NewSystemWithBackend instantiates a system by name with a per-kernel
// latency backend (DESIGN.md §15), returning unknown names as errors.
// Baselines have no pluggable latency model, so a backend other than ""
// or analytic on a non-Bullet name is an error, not a silent fallback.
func NewSystemWithBackend(name string, env *serving.Env, backend string, seed int64) (serving.System, error) {
	switch backend {
	case "", gpusim.BackendAnalytic, gpusim.BackendSampled, gpusim.BackendHierarchy:
	default:
		return nil, fmt.Errorf("experiments: unknown backend %q (have analytic, sampled, hierarchy)", backend)
	}
	if opts, ok := bulletOptions(name); ok {
		opts.Backend = backend
		opts.BackendSeed = seed
		return core.New(env, opts), nil
	}
	if backend != "" && backend != gpusim.BackendAnalytic {
		return nil, fmt.Errorf("experiments: backend %q requires a Bullet variant, got %q", backend, name)
	}
	switch name {
	case "vllm-1024":
		return chunked.New(env, chunked.VLLM1024()), nil
	case "sglang-1024":
		return chunked.New(env, chunked.SGLang1024()), nil
	case "sglang-2048":
		return chunked.New(env, chunked.SGLang2048()), nil
	case "nanoflow-1024":
		return nanoflow.New(env, nanoflow.DefaultConfig()), nil
	case "disagg-nvlink":
		return disagg.New(env, disagg.DefaultConfig()), nil
	case "disagg-pcie":
		return disagg.New(env, disagg.PCIeConfig()), nil
	}
	return nil, fmt.Errorf("experiments: unknown system %q", name)
}

// Platform returns the evaluation device and model (§4.1).
func Platform() (gpusim.Spec, model.Config) {
	return gpusim.A100(), model.Llama31_8B()
}

// RunOne executes a single serving experiment.
func RunOne(system string, dataset workload.Dataset, rate float64, n int, seed int64) serving.Result {
	spec, cfg := Platform()
	env := serving.NewEnv(spec, cfg, dataset.Name)
	sys := NewSystem(system, env)
	return env.Run(sys, workload.Generate(dataset, rate, n, seed))
}

// runOnDevice executes a serving experiment on a named device profile.
func runOnDevice(device, system string, dataset workload.Dataset, rate float64, n int, seed int64) serving.Result {
	var spec gpusim.Spec
	switch device {
	case "a100":
		spec = gpusim.A100()
	case "h100":
		spec = gpusim.H100()
	default:
		panic(fmt.Sprintf("experiments: unknown device %q", device))
	}
	_, cfg := Platform()
	env := serving.NewEnv(spec, cfg, dataset.Name)
	sys := NewSystem(system, env)
	return env.Run(sys, workload.Generate(dataset, rate, n, seed))
}

// E2EConfig scales the end-to-end sweeps.
type E2EConfig struct {
	Requests int
	Seed     int64
	Systems  []string
	// Rates per dataset, spanning light load to past the chunked
	// systems' saturation point (where the paper's gaps open up).
	Rates map[string][]float64
}

// DefaultE2EConfig is the full Figure 11 sweep.
func DefaultE2EConfig() E2EConfig {
	return E2EConfig{
		Requests: 300,
		Seed:     42,
		Systems:  SystemNames,
		Rates: map[string][]float64{
			"sharegpt":      {8, 12, 16, 20},
			"azure-code":    {3, 4, 5, 6},
			"arxiv-summary": {1.0, 1.4, 1.8, 2.2},
		},
	}
}

// QuickE2EConfig is a reduced sweep for tests and -short benchmarks.
func QuickE2EConfig() E2EConfig {
	return E2EConfig{
		Requests: 80,
		Seed:     42,
		Systems:  SystemNames,
		Rates: map[string][]float64{
			"sharegpt":      {16},
			"azure-code":    {5},
			"arxiv-summary": {2.0},
		},
	}
}

// --- rendering helpers -------------------------------------------------

// table renders rows of cells with aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func itoa(v int) string   { return fmt.Sprintf("%d", v) }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func powf(x, p float64) float64 { return math.Pow(x, p) }
func f2(v float64) string       { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string       { return fmt.Sprintf("%.3f", v) }

// metricsSLO returns the Azure-Code SLO used by control-plane benches.
func metricsSLO() metrics.SLO { return metrics.SLOFor("azure-code") }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
