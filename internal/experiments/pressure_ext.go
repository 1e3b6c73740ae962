package experiments

import (
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/units"
	"repro/internal/workload"
)

// PressureRow is one (rate, system) point of the memory-pressure
// overload study.
type PressureRow struct {
	System        string
	Rate          float64 // offered load, req/s
	Completed     int
	Shed          int
	Wedged        int // requests neither completed nor shed (must be 0)
	Goodput       float64
	Throughput    float64
	P99TTFT       float64 // seconds
	SLOAttainment float64
	Pressure      metrics.Pressure
}

// PressureSystems are the default ext-pressure contenders: plain Bullet
// (admission blocks on physical KV exhaustion and nothing ever sheds —
// the no-preemption baseline the study shows collapsing), the
// admission-gate-only ablation (defer/shed tiers but no decode
// preemption), and the full memory-pressure subsystem (gate + decode
// preemption + recompute/retransfer recovery).
var PressureSystems = []string{"bullet", "bullet-gate", "bullet-pressure"}

// pressureFaultConfig is the KV-capacity-shrink-only fault mix the
// study injects: a few deep fragmentation/leak events per run squeeze
// the pool hard enough that the no-preemption baseline's admissions
// stall behind decode drain while the pressure subsystem preempts its
// way back under the watermark. SM and stall faults stay off so the
// rows isolate the memory mechanism.
func pressureFaultConfig(numSMs int, horizon units.Seconds, seed int64) faults.Config {
	fcfg := faults.DefaultConfig(numSMs, horizon)
	fcfg.Seed = seed
	fcfg.DegradeRate = 0
	fcfg.StallRate = 0
	fcfg.CrashRate = 0
	fcfg.KVShrinkRate = 0.05
	fcfg.MeanKVShrinkFraction = 0.55
	fcfg.MeanKVShrinkDuration = units.Seconds(10)
	return fcfg
}

// ExtPressure sweeps offered load past saturation over one shared trace
// and (when withShrink) one shared KV-shrink fault schedule per rate:
// every contender sees exactly the same arrivals and the same capacity
// squeezes, so the rows isolate the admission/preemption policy. The
// watchdog is armed on every run; Wedged counts requests that finished
// the run neither completed nor shed (always 0 — the serving harness
// panics on a wedged pipeline, so a non-zero cell can only come from
// accounting drift).
func ExtPressure(d workload.Dataset, rates []float64, n int, seed int64, withShrink bool) []PressureRow {
	spec, _ := Platform()
	var rows []PressureRow
	for _, rate := range rates {
		trace := workload.Generate(d, rate, n, seed)
		// Cover the arrival span plus drain slack with faults.
		horizon := units.Scale(units.Over(units.Seconds(float64(n)), rate), 1.5)
		fcfg := pressureFaultConfig(spec.NumSMs, horizon, seed+1)
		if !withShrink {
			fcfg.KVShrinkRate = 0
		}
		sched := faults.Generate(fcfg)
		for _, name := range PressureSystems {
			dep := MustBuild(Spec{System: name, Dataset: d, Faults: &sched})
			res := dep.Run(trace)
			var ttfts []units.Seconds
			for _, r := range res.Requests {
				ttfts = append(ttfts, r.TTFT())
			}
			s := res.Summary
			rows = append(rows, PressureRow{
				System: res.System, Rate: rate,
				Completed: s.Requests, Shed: res.Shed,
				Wedged:  n - s.Requests - res.Shed,
				Goodput: s.Goodput, Throughput: s.Throughput,
				P99TTFT:       metrics.Percentile(ttfts, 0.99).Float(),
				SLOAttainment: s.SLOAttainment,
				Pressure:      dep.Bullet.Pressure(),
			})
		}
	}
	return rows
}

// RenderExtPressure prints the overload study.
func RenderExtPressure(rows []PressureRow) string {
	header := []string{"Rate", "System", "Done", "Shed", "Wedged", "Goodput", "Thr",
		"P99TTFT", "SLO", "Defer", "Preempt", "Recomp", "Retrans", "PeakOcc"}
	var cells [][]string
	for _, r := range rows {
		p := r.Pressure
		cells = append(cells, []string{
			f1(r.Rate), r.System, itoa(r.Completed), itoa(r.Shed), itoa(r.Wedged),
			f2(r.Goodput), f2(r.Throughput), f2(r.P99TTFT), f2(r.SLOAttainment),
			itoa(p.AdmissionsDeferred), itoa(p.Preemptions),
			itoa(p.Recomputes), itoa(p.Retransfers), f2(p.PeakOccupancy),
		})
	}
	return "Extension: goodput under KV memory pressure (admission gate + decode preemption vs none)\n" +
		table(header, cells)
}
