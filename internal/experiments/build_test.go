package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/resilience"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestBuildErrors pins every rejection of Build and their precedence:
// the backend first, then a non-analytic backend on a name that is not a
// Bullet variant (unknown names included), then the name, then faults
// or replicas on a baseline, then a static split off the device's SM
// grid. A wrong split would otherwise run at the nearest level under its
// own name.
func TestBuildErrors(t *testing.T) {
	const a100Levels = "(levels [6 12 18 24 30 36 42 48 54 60 66 72 78 84 90 96 102 108])"
	sched := &faults.Schedule{}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown-backend", Spec{System: "nope", Backend: "bogus"}, `unknown backend "bogus"`},
		{"backend-on-baseline", Spec{System: "vllm-1024", Backend: "sampled"},
			`backend "sampled" requires a Bullet variant, got "vllm-1024"`},
		{"backend-on-unknown", Spec{System: "nope", Backend: "hierarchy", Faults: sched},
			`backend "hierarchy" requires a Bullet variant, got "nope"`},
		{"unknown-system", Spec{System: "nope", Replicas: 2}, `unknown system "nope"`},
		{"zero-sm-static", Spec{System: "bullet-sm0", Faults: sched}, `unknown system "bullet-sm0"`},
		{"faults-on-baseline", Spec{System: "disagg-pcie", Faults: sched, Replicas: 2},
			`fault injection requires a Bullet variant, got "disagg-pcie"`},
		{"replicas-on-baseline", Spec{System: "sglang-1024", Replicas: 2},
			`a 2-replica cluster requires a Bullet variant, got "sglang-1024"`},
		{"static-above-device", Spec{System: "bullet-sm500", Faults: sched},
			`system "bullet-sm500": 500 SMs is not an SM level of the A100-PCIe-80GB ` + a100Levels},
		{"static-between-levels", Spec{System: "bullet-sm50", Replicas: 2, Policy: cluster.LeastLoaded},
			`system "bullet-sm50": 50 SMs is not an SM level of the A100-PCIe-80GB ` + a100Levels},
		{"static-below-step", Spec{System: "bullet-sm1"},
			`system "bullet-sm1": 1 SMs is not an SM level of the A100-PCIe-80GB ` + a100Levels},
		{"static-off-device-grid", Spec{System: "bullet-sm128", Device: gpusim.H100()},
			`128 SMs is not an SM level of the H100-SXM5-80GB (levels [6 12 `},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := Build(c.spec)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Build(%+v) = %v, %v; want an error containing %q", c.spec, d, err, c.want)
			}
		})
	}
	// The levels are the device's: its own SM count is one.
	for _, s := range []Spec{{System: "bullet-sm132", Device: gpusim.H100()}, {System: "bullet-sm108"}} {
		if _, err := Build(s); err != nil {
			t.Errorf("Build(%s on %q): %v", s.System, s.Device.Name, err)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `unknown system "nope"`) {
			t.Errorf("MustBuild of an unknown system panicked with %v", r)
		}
	}()
	MustBuild(Spec{System: "nope"})
}

// TestBuildCompositionMatrix composes features through Build: three
// Bullet variants × two latency backends × six fault and replica arms,
// each serving one tenant-mix trace. Every trace ID must complete or be
// shed exactly once, across failover and hedges, and nothing outside the
// trace may appear.
func TestBuildCompositionMatrix(t *testing.T) {
	const n, rate, seed = 30, 12.0, 5
	d := workload.AzureCode
	trace := workload.GenerateTenantMix(d, rate, n, seed, workload.DefaultTenantMix())
	device, _ := Platform()
	horizon := units.Scale(units.Seconds(float64(n)/rate), 1.5)
	fcfg := faults.DefaultConfig(device.NumSMs, horizon)
	fcfg.Seed, fcfg.Replicas = seed, 2
	fcfg.DegradeRate, fcfg.StallRate, fcfg.KVShrinkRate, fcfg.CrashRate = 2, 2, 1, 0.5
	device1 := faults.Generate(fcfg)
	storm := faults.GenerateChaos(chaosStorm(2, horizon, seed))
	rcfg := resilience.DefaultConfig()
	arms := []struct {
		name       string
		replicas   int
		faults     *faults.Schedule
		resilience *resilience.Config
	}{
		{"1x", 1, nil, nil},
		{"1x-device-faults", 1, &device1, nil},
		{"2x", 2, nil, nil},
		{"2x-device-faults", 2, &device1, nil},
		{"2x-storm", 2, &storm, nil},
		{"2x-storm-resilience", 2, &storm, &rcfg},
	}
	for _, sys := range []string{"bullet-prefix", "bullet-qos", "bullet-sm54"} {
		for _, backend := range []string{gpusim.BackendAnalytic, gpusim.BackendSampled} {
			for _, arm := range arms {
				t.Run(sys+"/"+backend+"/"+arm.name, func(t *testing.T) {
					dep := MustBuild(Spec{System: sys, Dataset: d, Backend: backend,
						Replicas: arm.replicas, Policy: cluster.LeastLoaded,
						Resilience: arm.resilience, Faults: arm.faults})
					dep.Env.MaxShed = n
					res := dep.Run(trace)
					seen := map[string]int{}
					for _, r := range res.Requests {
						seen[r.ID]++
					}
					for _, r := range dep.Env.ShedRequests() {
						seen[r.ID]++
					}
					for _, r := range trace.Requests {
						if seen[r.ID] != 1 {
							t.Errorf("request %s completed or shed %d times, want once", r.ID, seen[r.ID])
						}
						delete(seen, r.ID)
					}
					if len(seen) != 0 {
						t.Errorf("IDs outside the trace resolved: %v", seen)
					}
					if got := dep.Resilience().FaultsInjected; (arm.faults != nil) != (got > 0) {
						t.Errorf("%d faults fired; want some exactly when the arm has a schedule", got)
					}
				})
			}
		}
	}
}

// TestDeploymentAttachTimeline: a recorder attached to any deployment
// records the lanes its system emits — every replica of a cluster, a
// chunked baseline's hybrid batches, and the GPU alone for the rest.
func TestDeploymentAttachTimeline(t *testing.T) {
	cases := []struct {
		spec       Spec
		proc, lane string
	}{
		{Spec{System: "bullet", Replicas: 2, Policy: cluster.RoundRobin}, "replica1", "sched"},
		{Spec{System: "vllm-1024"}, "", "hybrid"},
		{Spec{System: "disagg-nvlink"}, "", "gpu"},
	}
	for _, c := range cases {
		c.spec.Dataset = workload.ShareGPT
		dep := MustBuild(c.spec)
		rec := timeline.New(0)
		dep.AttachTimeline(rec)
		dep.Run(workload.Generate(workload.ShareGPT, 4, 6, 1))
		found := false
		for _, e := range rec.Events() {
			found = found || e.Proc == c.proc && e.Lane == c.lane
		}
		if !found {
			t.Errorf("%s: no %q/%q event in the trace", c.spec.System, c.proc, c.lane)
		}
	}
}
