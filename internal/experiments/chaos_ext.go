package experiments

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/units"
	"repro/internal/workload"
)

// ChaosRow is one arm of the ext-chaos study: the same correlated
// link-failure storm over the same cluster and trace, with the
// router-tier resilience layer (DESIGN.md §16) off or on.
type ChaosRow struct {
	Arm           string
	Completed     int
	Shed          int
	Goodput       float64 // SLO-meeting req/s, per-class scaled SLOs, summed
	PremiumSLO    float64 // premium-class SLO attainment
	Retried       int
	Timeouts      int
	BreakerOpens  int
	Hedges        int
	HedgeWins     int
	RateLimited   int
	Drains        int
	Handoffs      int
	LinkFaults    int
	Recoveries    int
	MTTRSeconds   float64
	FaultsApplied int
}

// ChaosArms names the two contenders in render order.
var ChaosArms = []string{"resilience-off", "resilience-on"}

// chaosStorm derives the evaluation storm from the faults defaults:
// storms arrive often and run hot, so a meaningful fraction of the run
// has one or more replica links black-holed, with rack-style cascades
// taking neighbors down moments later.
func chaosStorm(replicas int, horizon units.Seconds, seed int64) faults.ChaosConfig {
	cfg := faults.DefaultChaosConfig(replicas, horizon)
	cfg.Seed = seed
	cfg.StormEnter = 0.6
	cfg.StormExit = 0.1
	cfg.StormLinkRate = 2
	cfg.LossProb = 0.9
	cfg.MeanLinkDuration = units.Seconds(10)
	cfg.CascadeProb = 0.6
	return cfg
}

// ExtChaos runs the correlated link-failure storm twice over identical
// inputs — the same tenant-tagged trace and the same bit-identical
// chaos schedule — toggling only cluster.Config.Resilience. The off arm
// is the naive router: it keeps dispatching into black-holed links,
// waits out every outage, and treats drains as crashes. The on arm gets
// circuit breakers, dispatch timeouts, hedged re-dispatch, per-class
// token buckets, and graceful drains. Everything is deterministic per
// (seed, workers-independent): the rows are byte-identical across
// same-seed runs and serial vs parallel replica advancement.
func ExtChaos(d workload.Dataset, rate float64, n int, seed int64, workers int) []ChaosRow {
	spec, cfg := Platform()
	core.FittedParams(cfg, spec)
	const replicas = 4
	horizon := units.Scale(units.Seconds(float64(n)/rate), 1.25)
	storm := chaosStorm(replicas, horizon, seed)
	sloFor := qosSLOFor(d.Name)
	var rows []ChaosRow
	for _, arm := range ChaosArms {
		ccfg := cluster.Config{
			Replicas: replicas, Policy: cluster.RoundRobin,
			Options: core.Options{Mode: core.ModeFull},
			Workers: workers,
		}
		if arm == "resilience-on" {
			rcfg := resilience.DefaultConfig()
			// A loose admission budget: the buckets only clip the
			// best-effort backlog that piles up behind storm outages.
			rcfg.BucketRate = 12000
			rcfg.BucketBurst = 90000
			ccfg.Resilience = &rcfg
		}
		env := serving.NewEnv(spec, cfg, d.Name)
		cl := cluster.New(env, ccfg)
		inj := faults.NewInjector(env.Sim, faults.GenerateChaos(storm))
		cl.AttachFaults(inj, core.DefaultWatchdog())
		inj.Arm()
		res := env.Run(cl, workload.GenerateTenantMix(d, rate, n, seed, workload.DefaultTenantMix()))
		rl := cl.Resilience()
		row := ChaosRow{
			Arm:           arm,
			Completed:     res.Summary.Requests,
			Shed:          res.Shed,
			Retried:       rl.Retried,
			Timeouts:      cl.DispatchTimeouts(),
			BreakerOpens:  rl.BreakerOpens,
			Hedges:        rl.Hedges,
			HedgeWins:     rl.HedgeWins,
			RateLimited:   rl.RateLimited,
			Drains:        rl.Drains,
			Handoffs:      rl.Handoffs,
			LinkFaults:    rl.LinkFaults,
			Recoveries:    rl.Recoveries,
			MTTRSeconds:   rl.MTTR().Float(),
			FaultsApplied: inj.Injected(),
		}
		for _, ts := range metrics.SummarizeByTenant(res.Requests, sloFor) {
			row.Goodput += ts.Goodput
			if ts.Tenant == qos.TenantPremium {
				row.PremiumSLO = ts.SLOAttainment
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderExtChaos prints the storm study, one row per arm.
func RenderExtChaos(rows []ChaosRow) string {
	header := []string{"Arm", "Done", "Shed", "Goodput", "PremSLO", "Retry",
		"Tmo", "BrkOpen", "Hedge", "Win", "RateLim", "Drain", "Handoff",
		"Links", "Recov", "MTTR(s)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Arm, itoa(r.Completed), itoa(r.Shed), f2(r.Goodput), f2(r.PremiumSLO),
			itoa(r.Retried), itoa(r.Timeouts), itoa(r.BreakerOpens), itoa(r.Hedges),
			itoa(r.HedgeWins), itoa(r.RateLimited), itoa(r.Drains), itoa(r.Handoffs),
			itoa(r.LinkFaults), itoa(r.Recoveries), f2(r.MTTRSeconds),
		})
	}
	return "Extension: router-tier resilience under a correlated link-failure storm\n" +
		table(header, cells)
}
