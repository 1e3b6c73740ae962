package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/forkjoin"
	"repro/internal/metrics"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// These experiments go beyond the paper's figures: ablation sweeps over
// Bullet's own design choices (the knobs DESIGN.md calls out) and the
// disaggregation comparison the related-work section argues about.

// KnobRow is one configuration point of a design-knob sweep.
type KnobRow struct {
	Knob          string
	Value         string
	MeanTTFT      float64
	P90NormTTFT   float64
	MeanTPOTMs    float64
	Throughput    float64
	SLOAttainment float64
}

func runBulletOpts(opts core.Options, d workload.Dataset, rate float64, n int, seed int64,
	tweak func(*core.Bullet)) serving.Result {
	spec, cfg := Platform()
	env := serving.NewEnv(spec, cfg, d.Name)
	b := core.New(env, opts)
	if tweak != nil {
		tweak(b)
	}
	return env.Run(b, workload.Generate(d, rate, n, seed))
}

func knobRow(knob, value string, res serving.Result) KnobRow {
	s := res.Summary
	return KnobRow{
		Knob: knob, Value: value,
		MeanTTFT: s.MeanTTFT.Float(), P90NormTTFT: s.P90NormTTFT,
		MeanTPOTMs: s.MeanTPOTMs, Throughput: s.Throughput,
		SLOAttainment: s.SLOAttainment,
	}
}

// AblationLayerGroup sweeps how many layers the prefill engine launches
// per scheduling cycle: 1 gives the finest reaction time at the highest
// synchronization cost.
func AblationLayerGroup(d workload.Dataset, rate float64, n int, seed int64) []KnobRow {
	var rows []KnobRow
	for _, g := range []int{1, 2, 4, 8} {
		res := runBulletOpts(core.Options{Mode: core.ModeFull, LayerGroup: g}, d, rate, n, seed, nil)
		rows = append(rows, knobRow("layer-group", fmt.Sprintf("%d", g), res))
	}
	return rows
}

// AblationSMStep sweeps the resource manager's partition granularity
// (the paper profiles at 6; the hardware mask granularity is 2).
func AblationSMStep(d workload.Dataset, rate float64, n int, seed int64) []KnobRow {
	var rows []KnobRow
	for _, step := range []int{2, 6, 12, 36} {
		res := runBulletOpts(core.Options{Mode: core.ModeFull, SMStep: step}, d, rate, n, seed, nil)
		rows = append(rows, knobRow("sm-step", fmt.Sprintf("%d", step), res))
	}
	return rows
}

// AblationMetadataLatency sweeps the inter-engine metadata path cost,
// checking the claim that the decentralized design tolerates a slow
// control plane.
func AblationMetadataLatency(d workload.Dataset, rate float64, n int, seed int64) []KnobRow {
	var rows []KnobRow
	for _, lat := range []sim.Time{0.01e-3, 0.21e-3, 1e-3, 5e-3} {
		res := runBulletOpts(core.Options{Mode: core.ModeFull, MetadataLatency: lat}, d, rate, n, seed, nil)
		rows = append(rows, knobRow("metadata-latency", fmt.Sprintf("%.2fms", lat.Ms()), res))
	}
	return rows
}

// AblationEstimator compares estimator configurations: the purely
// analytical model, the profile-fitted model, and the fitted model with
// the online feedback loop frozen.
func AblationEstimator(d workload.Dataset, rate float64, n int, seed int64) []KnobRow {
	spec, cfg := Platform()
	fitted := core.FittedParams(cfg, spec)
	var rows []KnobRow
	res := runBulletOpts(core.Options{Mode: core.ModeFull, Params: estimator.DefaultParams()}, d, rate, n, seed, nil)
	rows = append(rows, knobRow("estimator", "analytic", res))
	res = runBulletOpts(core.Options{Mode: core.ModeFull, Params: fitted}, d, rate, n, seed, nil)
	rows = append(rows, knobRow("estimator", "fitted", res))
	res = runBulletOpts(core.Options{Mode: core.ModeFull, Params: fitted}, d, rate, n, seed,
		func(b *core.Bullet) { b.Estimator.SetFeedbackEnabled(false) })
	rows = append(rows, knobRow("estimator", "fitted-no-feedback", res))
	return rows
}

// AblationBurstiness sweeps the arrival process's coefficient of
// variation at a fixed mean rate.
func AblationBurstiness(d workload.Dataset, rate float64, n int, seed int64) []KnobRow {
	spec, cfg := Platform()
	var rows []KnobRow
	for _, cv := range []float64{0.5, 1.0, 2.0, 4.0} {
		env := serving.NewEnv(spec, cfg, d.Name)
		b := core.New(env, core.Options{Mode: core.ModeFull})
		res := env.Run(b, workload.GenerateGamma(d, rate, cv, n, seed))
		rows = append(rows, knobRow("arrival-cv", fmt.Sprintf("%.1f", cv), res))
	}
	return rows
}

// RenderKnobRows prints a knob sweep.
func RenderKnobRows(title string, rows []KnobRow) string {
	header := []string{"Knob", "Value", "TTFT(s)", "P90nTTFT", "TPOT(ms)", "Thr", "SLO"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Knob, r.Value, f3(r.MeanTTFT), f2(r.P90NormTTFT), f1(r.MeanTPOTMs),
			f2(r.Throughput), f2(r.SLOAttainment),
		})
	}
	return title + "\n" + table(header, cells)
}

// DisaggRow is one point of the disaggregation comparison.
type DisaggRow struct {
	System        string
	GPUs          int
	Rate          float64
	MeanTTFT      float64
	MeanTPOTMs    float64
	Throughput    float64
	PerGPUThru    float64
	SLOAttainment float64
}

// ExtDisagg compares Bullet (one GPU) against DistServe-style
// disaggregation (two GPUs, NVLink or PCIe interconnect) on the same
// trace. Throughput is also normalized per GPU — the paper's argument is
// that Bullet reaches a disaggregation-like operating point on half the
// hardware.
func ExtDisagg(d workload.Dataset, rates []float64, n int, seed int64) []DisaggRow {
	systems := []struct {
		name string
		gpus int
	}{
		{"bullet", 1},
		{"disagg-nvlink", 2},
		{"disagg-pcie", 2},
	}
	var rows []DisaggRow
	for _, rate := range rates {
		for _, sys := range systems {
			res := RunOne(sys.name, d, rate, n, seed)
			s := res.Summary
			rows = append(rows, DisaggRow{
				System: sys.name, GPUs: sys.gpus, Rate: rate,
				MeanTTFT: s.MeanTTFT.Float(), MeanTPOTMs: s.MeanTPOTMs,
				Throughput: s.Throughput, PerGPUThru: s.Throughput / float64(sys.gpus),
				SLOAttainment: s.SLOAttainment,
			})
		}
	}
	return rows
}

// RenderExtDisagg prints the disaggregation comparison.
func RenderExtDisagg(rows []DisaggRow) string {
	header := []string{"Rate", "System", "GPUs", "TTFT(s)", "TPOT(ms)", "Thr", "Thr/GPU", "SLO"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			f1(r.Rate), r.System, itoa(r.GPUs), f3(r.MeanTTFT), f1(r.MeanTPOTMs),
			f2(r.Throughput), f2(r.PerGPUThru), f2(r.SLOAttainment),
		})
	}
	var sb strings.Builder
	sb.WriteString("Extension: Bullet (1 GPU) vs prefill/decode disaggregation (2 GPUs)\n")
	sb.WriteString(table(header, cells))
	return sb.String()
}

// CrossDeviceRow is one (device, system) end-to-end point.
type CrossDeviceRow struct {
	Device        string
	System        string
	MeanTTFT      float64
	MeanTPOTMs    float64
	Throughput    float64
	SLOAttainment float64
}

// ExtCrossDevice runs Bullet and SGLang-1024 on the A100 and H100
// profiles, checking that the orchestration generalizes across SM counts
// and roofline ratios.
func ExtCrossDevice(d workload.Dataset, rate float64, n int, seed int64) []CrossDeviceRow {
	var rows []CrossDeviceRow
	for _, spec := range []struct{ name string }{{"a100"}, {"h100"}} {
		for _, sys := range []string{"bullet", "sglang-1024"} {
			res := runOnDevice(spec.name, sys, d, rate, n, seed)
			s := res.Summary
			rows = append(rows, CrossDeviceRow{
				Device: spec.name, System: sys,
				MeanTTFT: s.MeanTTFT.Float(), MeanTPOTMs: s.MeanTPOTMs,
				Throughput: s.Throughput, SLOAttainment: s.SLOAttainment,
			})
		}
	}
	return rows
}

// RenderExtCrossDevice prints the cross-device comparison.
func RenderExtCrossDevice(rows []CrossDeviceRow) string {
	header := []string{"Device", "System", "TTFT(s)", "TPOT(ms)", "Thr", "SLO"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Device, r.System, f3(r.MeanTTFT), f1(r.MeanTPOTMs), f2(r.Throughput), f2(r.SLOAttainment),
		})
	}
	return "Extension: cross-device generalization (A100 vs H100)\n" + table(header, cells)
}

// PrefixRow is one point of the shared-prefix caching extension study.
type PrefixRow struct {
	System        string
	ShareProb     float64
	MeanTTFT      float64
	Throughput    float64
	SLOAttainment float64
	HitTokens     int64
	HitRate       float64
}

// ExtPrefixCache compares Bullet with and without RadixAttention-style
// prefix reuse on workloads whose requests share system prompts with the
// given probabilities.
func ExtPrefixCache(d workload.Dataset, rate float64, n int, seed int64, shareProbs []float64) []PrefixRow {
	spec, cfg := Platform()
	var rows []PrefixRow
	for _, p := range shareProbs {
		trace := workload.GenerateShared(d, rate, n, seed, 4, 1024, p)
		for _, enable := range []bool{false, true} {
			env := serving.NewEnv(spec, cfg, d.Name)
			b := core.New(env, core.Options{Mode: core.ModeFull, EnablePrefixCache: enable})
			res := env.Run(b, trace)
			row := PrefixRow{
				System: b.Name(), ShareProb: p,
				MeanTTFT: res.Summary.MeanTTFT.Float(), Throughput: res.Summary.Throughput,
				SLOAttainment: res.Summary.SLOAttainment,
			}
			if b.PrefixCache != nil {
				st := b.PrefixCache.Stats()
				row.HitTokens = st.HitTokens
				if st.Hits+st.Misses > 0 {
					row.HitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderExtPrefixCache prints the prefix-caching study.
func RenderExtPrefixCache(rows []PrefixRow) string {
	header := []string{"ShareProb", "System", "TTFT(s)", "Thr", "SLO", "HitRate", "SavedTokens"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			f2(r.ShareProb), r.System, f3(r.MeanTTFT), f2(r.Throughput),
			f2(r.SLOAttainment), f2(r.HitRate), fmt.Sprintf("%d", r.HitTokens),
		})
	}
	return "Extension: shared-prefix (RadixAttention-style) caching\n" + table(header, cells)
}

// ClusterRow is one point of the scale-out extension study.
type ClusterRow struct {
	Replicas      int
	Policy        string
	Rate          float64
	MeanTTFT      float64
	Throughput    float64
	PerGPUThru    float64
	SLOAttainment float64
}

// ExtClusterN scales Bullet horizontally: 1, 2 and 4 replicas behind a
// least-loaded router at a rate that saturates a single GPU. The
// fork/join width bounds how many sweep rows run concurrently (0 selects
// the GOMAXPROCS default), and each row's cluster advances its replicas
// serially (one nested level of parallelism is enough; rows outnumber
// spare cores). workers == 1 reproduces the fully serial sweep byte for
// byte — the equivalence cmd/bulletsim's cluster golden pins at 1 and 4
// workers.
func ExtClusterN(d workload.Dataset, rate float64, n int, seed int64, workers int) []ClusterRow {
	spec, cfg := Platform()
	// Profile once before forking so the rows share the memoized fit
	// instead of racing to compute it.
	core.FittedParams(cfg, spec)
	sizes := []int{1, 2, 4}
	return forkjoin.Map(len(sizes), workers, func(i int) ClusterRow {
		replicas := sizes[i]
		env := serving.NewEnv(spec, cfg, d.Name)
		var sys serving.System
		if replicas == 1 {
			sys = core.New(env, core.Options{Mode: core.ModeFull})
		} else {
			sys = cluster.New(env, cluster.Config{
				Replicas: replicas, Policy: cluster.LeastLoaded,
				Options: core.Options{Mode: core.ModeFull}, Workers: 1,
			})
		}
		res := env.Run(sys, workload.Generate(d, rate, n, seed))
		s := res.Summary
		return ClusterRow{
			Replicas: replicas, Policy: string(cluster.LeastLoaded), Rate: rate,
			MeanTTFT: s.MeanTTFT.Float(), Throughput: s.Throughput,
			PerGPUThru: s.Throughput / float64(replicas), SLOAttainment: s.SLOAttainment,
		}
	})
}

// RenderExtCluster prints the scale-out study.
func RenderExtCluster(rows []ClusterRow) string {
	header := []string{"Replicas", "Rate", "TTFT(s)", "Thr", "Thr/GPU", "SLO"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			itoa(r.Replicas), f1(r.Rate), f3(r.MeanTTFT), f2(r.Throughput),
			f2(r.PerGPUThru), f2(r.SLOAttainment),
		})
	}
	return "Extension: horizontal scale-out of Bullet replicas (least-loaded router)\n" + table(header, cells)
}

// FaultRow is one (degrade-rate, system) point of the resilience study.
type FaultRow struct {
	System        string
	DegradeRate   float64 // SM-degradation events per second of virtual time
	Completed     int
	Shed          int
	Goodput       float64
	Throughput    float64
	SLOAttainment float64
	Resilience    metrics.Resilience
}

// FaultSystems are the default ext-faults contenders: dynamic Bullet
// against two MuxServe-style static splits. Under SM degradation the
// dynamic system re-runs Algorithm 1 on the shrunken budget while the
// statics keep their (clamped) fixed quota — the gap this study measures.
var FaultSystems = []string{"bullet", "bullet-sm54", "bullet-sm84"}

// ExtFaults sweeps the SM-degradation rate over one shared trace and
// fault schedule for each system: every contender sees exactly the same
// arrivals and the same fault timeline, so the rows isolate the
// resilience mechanism. Engine stalls and crashes are disabled here —
// SM loss is the fault mode where the provisioning policy matters.
func ExtFaults(d workload.Dataset, rate float64, n int, seed int64, degradeRates []float64, systems []string) []FaultRow {
	spec, cfg := Platform()
	trace := workload.Generate(d, rate, n, seed)
	// Cover the arrival span plus drain slack with faults.
	horizon := units.Scale(units.Over(units.Seconds(float64(n)), rate), 1.5)
	var rows []FaultRow
	for _, fr := range degradeRates {
		fcfg := faults.DefaultConfig(spec.NumSMs, horizon)
		fcfg.Seed = seed + 1
		fcfg.DegradeRate = fr
		fcfg.StallRate = 0
		sched := faults.Generate(fcfg)
		for _, name := range systems {
			env := serving.NewEnv(spec, cfg, d.Name)
			sys := NewSystem(name, env)
			b, ok := sys.(*core.Bullet)
			if !ok {
				panic(fmt.Sprintf("experiments: ext-faults needs a Bullet variant, got %q", name))
			}
			inj := faults.NewInjector(env.Sim, sched)
			b.AttachFaults(inj, core.DefaultWatchdog())
			inj.Arm()
			res := env.Run(sys, trace)
			rl := b.Resilience()
			rl.FaultsInjected = inj.Injected()
			rl.Downtime = inj.ScheduledDowntime()
			rows = append(rows, FaultRow{
				System: res.System, DegradeRate: fr,
				Completed: res.Summary.Requests, Shed: res.Shed,
				Goodput: res.Summary.Goodput, Throughput: res.Summary.Throughput,
				SLOAttainment: res.Summary.SLOAttainment, Resilience: rl,
			})
		}
	}
	return rows
}

// RenderExtFaults prints the resilience study.
func RenderExtFaults(rows []FaultRow) string {
	header := []string{"DegradeRate", "System", "Done", "Shed", "Goodput", "Thr", "SLO", "Faults", "Recov", "MTTR(s)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			f2(r.DegradeRate), r.System, itoa(r.Completed), itoa(r.Shed),
			f2(r.Goodput), f2(r.Throughput), f2(r.SLOAttainment),
			itoa(r.Resilience.FaultsInjected), itoa(r.Resilience.Recoveries),
			f2(r.Resilience.MTTR().Float()),
		})
	}
	return "Extension: goodput under injected SM degradation (dynamic vs static split)\n" + table(header, cells)
}

// FindKnee binary-searches the highest request rate (within [lo, hi]) at
// which a system still meets the target SLO attainment. This is the
// capacity-planning question Fig. 11 answers pointwise; the knee
// condenses it to one number per system.
func FindKnee(system string, d workload.Dataset, target float64, n int, seed int64, lo, hi float64) float64 {
	attainAt := func(rate float64) float64 {
		return RunOne(system, d, rate, n, seed).Summary.SLOAttainment
	}
	if attainAt(lo) < target {
		return 0 // infeasible even at the low end
	}
	if attainAt(hi) >= target {
		return hi
	}
	for i := 0; i < 7; i++ {
		mid := (lo + hi) / 2
		if attainAt(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// KneeRow is one system's serving capacity.
type KneeRow struct {
	System string
	Knee   float64 // req/s at the target SLO attainment
}

// ExtKnees finds each system's goodput knee on a dataset.
func ExtKnees(d workload.Dataset, target float64, n int, seed int64, lo, hi float64, systems []string) []KneeRow {
	var rows []KneeRow
	for _, sys := range systems {
		rows = append(rows, KneeRow{System: sys, Knee: FindKnee(sys, d, target, n, seed, lo, hi)})
	}
	return rows
}

// RenderExtKnees prints the capacity table.
func RenderExtKnees(d string, target float64, rows []KneeRow) string {
	header := []string{"System", "MaxRate(req/s)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.System, f2(r.Knee)})
	}
	return fmt.Sprintf("Extension: goodput knee on %s (max rate with ≥%.0f%% SLO attainment)\n",
		d, 100*target) + table(header, cells)
}

// TPRow is one tensor-parallel configuration's end-to-end result.
type TPRow struct {
	TP            int
	MeanTTFT      float64
	MeanTPOTMs    float64
	Throughput    float64
	PerGPUThru    float64
	SLOAttainment float64
}

// ExtTensorParallel serves the same workload with the model sharded
// across 1, 2 and 4 GPUs (Megatron TP): latencies shrink with the shard
// compute, but allreduces and replicated elementwise work erode per-GPU
// efficiency — the classic TP tradeoff Bullet is orthogonal to.
func ExtTensorParallel(d workload.Dataset, rate float64, n int, seed int64) []TPRow {
	spec, cfg := Platform()
	var rows []TPRow
	for _, tp := range []int{1, 2, 4} {
		mc := cfg.TP(tp)
		env := serving.NewEnv(spec, mc, d.Name)
		b := core.New(env, core.Options{Mode: core.ModeFull})
		res := env.Run(b, workload.Generate(d, rate, n, seed))
		s := res.Summary
		rows = append(rows, TPRow{
			TP: tp, MeanTTFT: s.MeanTTFT.Float(), MeanTPOTMs: s.MeanTPOTMs,
			Throughput: s.Throughput, PerGPUThru: s.Throughput / float64(tp),
			SLOAttainment: s.SLOAttainment,
		})
	}
	return rows
}

// RenderExtTensorParallel prints the TP study.
func RenderExtTensorParallel(rows []TPRow) string {
	header := []string{"TP", "TTFT(s)", "TPOT(ms)", "Thr", "Thr/GPU", "SLO"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			itoa(r.TP), f3(r.MeanTTFT), f1(r.MeanTPOTMs), f2(r.Throughput),
			f2(r.PerGPUThru), f2(r.SLOAttainment),
		})
	}
	return "Extension: Megatron tensor parallelism under Bullet (NVLink allreduce)\n" + table(header, cells)
}
