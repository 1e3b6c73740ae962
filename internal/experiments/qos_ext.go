package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/serving"
	"repro/internal/workload"
)

// QoSRow is one (rate, system, tenant) point of the multi-tenant QoS
// overload study. Each tenant class is evaluated against its own scaled
// SLO (premium at the paper's targets, standard at 2x, best-effort at
// 4x) for both systems, so the baseline is judged by the same per-class
// yardstick as the controller.
type QoSRow struct {
	System        string
	Rate          float64 // offered load, req/s (all classes combined)
	Tenant        string
	Completed     int
	Shed          int
	P90NormTTFT   float64 // ms per input token
	P90TPOTMs     float64
	SLOAttainment float64
	Goodput       float64 // SLO-meeting requests per second
}

// QoSSystems are the ext-qos contenders: plain Bullet with static batch
// caps and no tenant awareness (the baseline that collapses for every
// class at overload) against the full QoS stack (pressure gate with
// priority admission + the SLO-feedback AIMD controller + weighted
// fairness + class-ordered preemption and shed).
var QoSSystems = []string{"bullet", "bullet-qos"}

// qosSLOFor returns the per-tenant evaluation SLO: the dataset targets
// scaled by the class's SLO scale.
func qosSLOFor(dataset string) func(tenant string) metrics.SLO {
	base := metrics.SLOFor(dataset)
	return func(tenant string) metrics.SLO {
		return qos.SLOFor(qos.ClassOf(tenant), base)
	}
}

// ExtQoS sweeps a mixed-tenant workload past saturation over one shared
// trace per rate: both contenders see exactly the same tenant-tagged
// arrivals, so the per-class rows isolate the QoS policy. Rows come back
// grouped by rate, then system, then tenant tag (sorted).
func ExtQoS(d workload.Dataset, rates []float64, n int, seed int64, mix workload.TenantMix) []QoSRow {
	spec, cfg := Platform()
	sloFor := qosSLOFor(d.Name)
	var rows []QoSRow
	for _, rate := range rates {
		trace := workload.GenerateTenantMix(d, rate, n, seed, mix)
		for _, name := range QoSSystems {
			env := serving.NewEnv(spec, cfg, d.Name)
			sys := NewSystem(name, env)
			if _, ok := sys.(*core.Bullet); !ok {
				panic(fmt.Sprintf("experiments: ext-qos needs a Bullet variant, got %q", name))
			}
			res := env.Run(sys, trace)
			shedByTenant := map[string]int{}
			for _, r := range env.ShedRequests() {
				shedByTenant[r.Tenant]++
			}
			for _, ts := range metrics.SummarizeByTenant(res.Requests, sloFor) {
				rows = append(rows, QoSRow{
					System: res.System, Rate: rate, Tenant: ts.Tenant,
					Completed: ts.Requests, Shed: shedByTenant[ts.Tenant],
					P90NormTTFT: ts.P90NormTTFT, P90TPOTMs: ts.P90TPOTMs,
					SLOAttainment: ts.SLOAttainment, Goodput: ts.Goodput,
				})
			}
		}
	}
	return rows
}

// RenderExtQoS prints the multi-tenant overload study.
func RenderExtQoS(rows []QoSRow) string {
	header := []string{"Rate", "System", "Tenant", "Done", "Shed",
		"P90nTTFT", "P90TPOT", "SLO", "Goodput"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			f1(r.Rate), r.System, r.Tenant, itoa(r.Completed), itoa(r.Shed),
			f2(r.P90NormTTFT), f1(r.P90TPOTMs), f2(r.SLOAttainment), f2(r.Goodput),
		})
	}
	return "Extension: multi-tenant QoS under overload (SLO-feedback controller vs static batching)\n" +
		table(header, cells)
}

// QoSClusterRow is one tenant's slice of the qos cluster arm, plus the
// cluster-wide per-class token accounting.
type QoSClusterRow struct {
	Replicas      int
	Rate          float64
	Tenant        string
	Completed     int
	SLOAttainment float64
	Goodput       float64
	PrefillTokens int
	DecodeTokens  int
}

// ExtQoSCluster runs the mixed-tenant overload through a 2-replica
// least-loaded cluster with the full QoS stack on every replica.
// Controller state is per-replica and decisions fire at virtual-time
// window boundaries, so the rows are byte-identical whether the replicas
// step serially (workers=1) or in parallel — the property the -workers 4
// rows of cmd/bulletsim's TestGolden pin.
func ExtQoSCluster(d workload.Dataset, rate float64, n int, seed int64, workers int) []QoSClusterRow {
	spec, cfg := Platform()
	core.FittedParams(cfg, spec)
	const replicas = 2
	env := serving.NewEnv(spec, cfg, d.Name)
	cl := cluster.New(env, cluster.Config{
		Replicas: replicas, Policy: cluster.LeastLoaded,
		Options: core.Options{Mode: core.ModeFull, Pressure: &pressure.Config{}, QoS: true},
		Workers: workers,
	})
	res := env.Run(cl, workload.GenerateTenantMix(d, rate, n, seed, workload.DefaultTenantMix()))
	acct := cl.QoS()
	var rows []QoSClusterRow
	for _, ts := range metrics.SummarizeByTenant(res.Requests, qosSLOFor(d.Name)) {
		class := qos.ClassOf(ts.Tenant)
		rows = append(rows, QoSClusterRow{
			Replicas: replicas, Rate: rate, Tenant: ts.Tenant,
			Completed: ts.Requests, SLOAttainment: ts.SLOAttainment,
			Goodput:       ts.Goodput,
			PrefillTokens: acct.PrefillTokens[class],
			DecodeTokens:  acct.DecodeTokens[class],
		})
	}
	return rows
}

// RenderExtQoSCluster prints the qos cluster arm.
func RenderExtQoSCluster(rows []QoSClusterRow) string {
	header := []string{"Replicas", "Rate", "Tenant", "Done", "SLO", "Goodput",
		"PrefillTok", "DecodeTok"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			itoa(r.Replicas), f1(r.Rate), r.Tenant, itoa(r.Completed),
			f2(r.SLOAttainment), f2(r.Goodput),
			itoa(r.PrefillTokens), itoa(r.DecodeTokens),
		})
	}
	return "Extension: QoS cluster arm (per-replica controllers, serial ≡ parallel)\n" +
		table(header, cells)
}
