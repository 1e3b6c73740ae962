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

	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// SystemNames lists the evaluated serving systems in the paper's order.
var SystemNames = []string{
	"bullet", "vllm-1024", "sglang-1024", "sglang-2048", "nanoflow-1024",
}

// Platform returns the evaluation device and model (§4.1).
func Platform() (gpusim.Spec, model.Config) {
	return gpusim.A100(), model.Llama31_8B()
}

// RunOne executes a single serving experiment.
func RunOne(system string, dataset workload.Dataset, rate float64, n int, seed int64) serving.Result {
	return MustBuild(Spec{System: system, Dataset: dataset}).Run(workload.Generate(dataset, rate, n, seed))
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
