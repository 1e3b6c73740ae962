package experiments

import (
	"strings"

	"repro/internal/workload"
)

// Params parameterizes one run of a registered experiment. Each runner
// reads the fields its study varies and ignores the rest.
type Params struct {
	Dataset workload.Dataset
	// Rate is the base offered load in req/s; rate sweeps derive their
	// points from it.
	Rate float64
	// N is the request count per run (Fig. 10: samples per dataset;
	// Table 3: timed iterations per component).
	N    int
	Seed int64
	// Workers is the fork/join width of cluster arms: 0 selects the
	// GOMAXPROCS default, 1 runs serially. Output is identical at every
	// width.
	Workers int
	// Quick selects the reduced Fig. 11 rate sweep.
	Quick bool
	// Clock supplies wall-clock seconds to Table 3's microbenchmarks.
	// nodeterm keeps the host clock out of internal/, so callers inject
	// it; nil selects Table3's synthetic clock.
	Clock func() float64
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID string
	// Run executes the experiment and renders its text table.
	Run func(Params) string
	// Flags names the Params fields Run reads, as the command-line flags
	// that set them (dataset, rate, n, seed, workers); a CLI that sizes
	// the run by flags rejects any other.
	Flags []string
	// Full and Quick are the parameters of `bulletbench` and
	// `bulletbench -quick`.
	Full, Quick Params
}

// load is the Params of a single-dataset serving study.
func load(d workload.Dataset, rate float64, n int, seed int64) Params {
	return Params{Dataset: d, Rate: rate, N: n, Seed: seed}
}

// The Flags of the common runner shapes: a sample size and seed, a
// single-dataset serving study, and one with a cluster arm.
var (
	sampleFlags  = []string{"n", "seed"}
	loadFlags    = []string{"dataset", "rate", "n", "seed"}
	clusterFlags = []string{"dataset", "rate", "n", "seed", "workers"}
)

// Registry lists every experiment in report order: the paper's tables
// and figures (DESIGN.md §3), then the extension studies (§6). Both CLIs,
// the repository benchmarks and the golden tests walk it.
var Registry = []Experiment{
	{ID: "table1", Run: func(Params) string { return RenderTable1(Table1()) }},
	{ID: "fig2", Run: func(Params) string { return RenderFigure2(Figure2()) }},
	{ID: "fig4", Run: func(Params) string { return RenderFigure4(Figure4()) }},
	{ID: "fig7", Run: func(Params) string { return RenderFigure7(Figure7()) }},
	{
		ID:    "fig10",
		Run:   func(p Params) string { return RenderFigure10(Figure10(p.N, p.Seed)) },
		Flags: sampleFlags,
		Full:  Params{N: 4000, Seed: 42}, Quick: Params{N: 4000, Seed: 42},
	},
	{
		ID: "fig11",
		Run: func(p Params) string {
			cfg := DefaultE2EConfig()
			if p.Quick {
				cfg = QuickE2EConfig()
			}
			cfg.Requests, cfg.Seed = p.N, p.Seed
			return RenderFigure11(Figure11(cfg))
		},
		Flags: sampleFlags,
		Full:  Params{N: 300, Seed: 42}, Quick: Params{N: 80, Seed: 42, Quick: true},
	},
	{
		// Figure 12 is the bursty Azure-Code timeline; the dataset is fixed.
		ID:    "fig12",
		Run:   func(p Params) string { return RenderFigure12(Figure12(p.Rate, p.N, p.Seed, 48)) },
		Flags: []string{"rate", "n", "seed"},
		Full:  Params{Rate: 3.5, N: 300, Seed: 42}, Quick: Params{Rate: 3.5, N: 100, Seed: 42},
	},
	{
		ID:    "table3",
		Run:   func(p Params) string { return RenderTable3(Table3(p.N, p.Clock)) },
		Flags: []string{"n"},
		Full:  Params{N: 2000}, Quick: Params{N: 2000},
	},
	{
		ID:    "fig13",
		Run:   func(p Params) string { return RenderFigure13(Figure13(p.Dataset, p.Rate, p.N, p.Seed)) },
		Flags: loadFlags,
		Full:  load(workload.AzureCode, 5, 300, 42), Quick: load(workload.AzureCode, 5, 100, 42),
	},
	{
		// Figure 14 runs every dataset at its DefaultFigure14Rates point.
		ID:    "fig14",
		Run:   func(p Params) string { return RenderFigure14(Figure14(DefaultFigure14Rates(), p.N, p.Seed)) },
		Flags: sampleFlags,
		Full:  Params{N: 300, Seed: 42}, Quick: Params{N: 100, Seed: 42},
	},
	{
		ID:    "fig15",
		Run:   func(p Params) string { return RenderFigure15(Figure15(p.N, p.Seed)) },
		Flags: sampleFlags,
		Full:  Params{N: 300, Seed: 42}, Quick: Params{N: 100, Seed: 42},
	},
	{
		ID: "ext-knobs",
		Run: func(p Params) string {
			d, r, n, s := p.Dataset, p.Rate, p.N, p.Seed
			return strings.Join([]string{
				RenderKnobRows("Extension: prefill layer-group sweep (Azure-Code @ 4 req/s)",
					AblationLayerGroup(d, r, n, s)),
				RenderKnobRows("Extension: SM partition granularity sweep", AblationSMStep(d, r, n, s)),
				RenderKnobRows("Extension: metadata latency sensitivity", AblationMetadataLatency(d, r, n, s)),
				RenderKnobRows("Extension: estimator configuration", AblationEstimator(d, r, n, s)),
				RenderKnobRows("Extension: arrival burstiness (gamma CV)", AblationBurstiness(d, r, n, s)),
			}, "\n")
		},
		Flags: loadFlags,
		Full:  load(workload.AzureCode, 4, 300, 42), Quick: load(workload.AzureCode, 4, 100, 42),
	},
	{
		ID: "ext-disagg",
		Run: func(p Params) string {
			return RenderExtDisagg(ExtDisagg(p.Dataset, []float64{p.Rate - 1, p.Rate, p.Rate + 1}, p.N, p.Seed))
		},
		Flags: loadFlags,
		Full:  load(workload.AzureCode, 4, 300, 42), Quick: load(workload.AzureCode, 4, 100, 42),
	},
	{
		ID:    "ext-device",
		Run:   func(p Params) string { return RenderExtCrossDevice(ExtCrossDevice(p.Dataset, p.Rate, p.N, p.Seed)) },
		Flags: loadFlags,
		Full:  load(workload.ShareGPT, 12, 300, 42), Quick: load(workload.ShareGPT, 12, 100, 42),
	},
	{
		ID: "ext-prefix",
		Run: func(p Params) string {
			return RenderExtPrefixCache(ExtPrefixCache(p.Dataset, p.Rate, p.N, p.Seed, []float64{0, 0.5, 0.9}))
		},
		Flags: loadFlags,
		Full:  load(workload.AzureCode, 4, 300, 42), Quick: load(workload.AzureCode, 4, 100, 42),
	},
	{
		ID: "ext-cluster",
		Run: func(p Params) string {
			return RenderExtCluster(ExtClusterN(p.Dataset, p.Rate, p.N, p.Seed, p.Workers))
		},
		Flags: clusterFlags,
		Full:  load(workload.AzureCode, 9, 300, 42), Quick: load(workload.AzureCode, 9, 100, 42),
	},
	{
		// The knee search spans 2–10 req/s; Rate is unused.
		ID: "ext-knee",
		Run: func(p Params) string {
			rows := ExtKnees(p.Dataset, 0.9, p.N, p.Seed, 2, 10, SystemNames)
			return RenderExtKnees(p.Dataset.Name, 0.9, rows)
		},
		Flags: []string{"dataset", "n", "seed"},
		Full:  load(workload.AzureCode, 0, 150, 42), Quick: load(workload.AzureCode, 0, 50, 42),
	},
	{
		ID: "ext-tp",
		Run: func(p Params) string {
			return RenderExtTensorParallel(ExtTensorParallel(p.Dataset, p.Rate, p.N, p.Seed))
		},
		Flags: loadFlags,
		Full:  load(workload.AzureCode, 4, 300, 42), Quick: load(workload.AzureCode, 4, 100, 42),
	},
	{
		ID: "ext-faults",
		Run: func(p Params) string {
			return RenderExtFaults(ExtFaults(p.Dataset, p.Rate, p.N, p.Seed,
				[]float64{0, 0.05, 0.1, 0.2}, FaultSystems))
		},
		Flags: loadFlags,
		Full:  load(workload.AzureCode, 4, 300, 42), Quick: load(workload.AzureCode, 4, 100, 42),
	},
	{
		ID: "ext-pressure",
		Run: func(p Params) string {
			rates := []float64{p.Rate, 2 * p.Rate, 3 * p.Rate}
			return RenderExtPressure(ExtPressure(p.Dataset, rates, p.N, p.Seed, true))
		},
		Flags: loadFlags,
		Full:  load(workload.AzureCode, 4, 200, 42), Quick: load(workload.AzureCode, 4, 80, 42),
	},
	{
		// The 2-replica cluster arm runs at the top rate of the sweep.
		ID: "ext-qos",
		Run: func(p Params) string {
			rates := []float64{p.Rate, 2 * p.Rate, 3 * p.Rate}
			rows := ExtQoS(p.Dataset, rates, p.N, p.Seed, workload.DefaultTenantMix())
			cl := ExtQoSCluster(p.Dataset, 3*p.Rate, p.N, p.Seed, p.Workers)
			return RenderExtQoS(rows) + RenderExtQoSCluster(cl)
		},
		Flags: clusterFlags,
		Full:  load(workload.AzureCode, 10, 200, 42), Quick: load(workload.AzureCode, 10, 100, 42),
	},
	{
		// The 1-vs-2-replica sampled-backend arm runs at 1.6× the base
		// load (8 req/s at the default 5).
		ID: "ext-fidelity",
		Run: func(p Params) string {
			return RenderExtFidelity(ExtFidelity(p.Dataset, p.Rate, p.N, p.Seed),
				ExtFidelityCluster(p.Dataset, 1.6*p.Rate, p.N, p.Seed, p.Workers))
		},
		Flags: clusterFlags,
		Full:  load(workload.AzureCode, 5, 300, 42), Quick: load(workload.AzureCode, 5, 120, 42),
	},
	{
		ID:    "ext-chaos",
		Run:   func(p Params) string { return RenderExtChaos(ExtChaos(p.Dataset, p.Rate, p.N, p.Seed, p.Workers)) },
		Flags: clusterFlags,
		Full:  load(workload.AzureCode, 10, 300, 7), Quick: load(workload.AzureCode, 10, 120, 7),
	},
}

// Lookup returns the registered experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every registered id in report order.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return ids
}
