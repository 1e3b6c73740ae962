package cluster

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// runResilient drives a cluster run with router-tier faults and no
// timeline (so Workers takes effect). Env.Run already quiesced hedge
// losers and checked the cluster drained; the repeat calls pin that
// doing so again is a harmless no-op.
func runResilient(t testing.TB, cfg Config, sched faults.Schedule, tr *workload.Trace) (*Cluster, serving.Result, metrics.Resilience) {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	inj := faults.NewInjector(env.Sim, sched)
	c.AttachFaults(inj, core.DefaultWatchdog())
	inj.Arm()
	res := env.Run(c, tr)
	c.Quiesce()
	c.CheckDrained()
	return c, res, c.Resilience()
}

func linkLossAt(at units.Seconds, replica int, dur units.Seconds) faults.Event {
	return faults.Event{At: at, Kind: faults.KindLinkDegrade, Replica: replica, LinkLoss: true, Duration: dur}
}

// TestLinkLossNaiveRouterParksDispatches: without mitigations the
// router keeps dispatching into the black hole; parked requests only
// move when the link restores, so everything still completes — late.
func TestLinkLossNaiveRouterParksDispatches(t *testing.T) {
	const n = 40
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts()}
	sched := faults.Schedule{Events: []faults.Event{linkLossAt(0.5, 0, 2)}}
	c, res, rl := runResilient(t, cfg, sched, workload.Generate(workload.AzureCode, 8, n, 31))
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if rl.LinkFaults != 1 {
		t.Fatalf("link faults = %d, want 1", rl.LinkFaults)
	}
	if c.DispatchTimeouts() != 0 {
		t.Fatalf("naive router re-routed %d dispatches; it must wait out the link", c.DispatchTimeouts())
	}
	if rl.Recoveries == 0 {
		t.Fatal("link restoration not counted as a recovery")
	}
	if rl.RecoveryTime != 2 {
		t.Fatalf("attributed recovery time = %v, want the 2s outage", rl.RecoveryTime)
	}
}

// TestLinkLossTimeoutsTripBreaker: with mitigations armed on a
// single-replica fleet (nowhere healthy to fail over), parked
// dispatches time out, the breaker trips after the failure threshold,
// and probes re-close it once the link restores.
func TestLinkLossTimeoutsTripBreaker(t *testing.T) {
	const n = 30
	rcfg := resilience.DefaultConfig()
	cfg := Config{Replicas: 1, Policy: RoundRobin, Options: opts(), Resilience: &rcfg}
	sched := faults.Schedule{Events: []faults.Event{linkLossAt(0.4, 0, 1.5)}}
	c, res, rl := runResilient(t, cfg, sched, workload.Generate(workload.AzureCode, 8, n, 32))
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if c.DispatchTimeouts() == 0 {
		t.Fatal("no dispatch timed out across a 1.5s loss with a 200ms timeout")
	}
	if rl.BreakerOpens == 0 {
		t.Fatal("breaker never opened under consecutive timeouts")
	}
	if rl.BreakerCloses == 0 {
		t.Fatal("breaker never re-closed after the link restored")
	}
	if rl.Retried < c.DispatchTimeouts() {
		t.Fatalf("retried %d < timeouts %d; every timeout must re-dispatch", rl.Retried, c.DispatchTimeouts())
	}
}

// TestLinkLossResilientAvoidsDeadReplica: with a healthy peer, the
// health-aware pick routes around the lost link, so the victim replica
// serves nothing new during the outage and no dispatch needs the
// timeout path.
func TestLinkLossResilientAvoidsDeadReplica(t *testing.T) {
	const n = 40
	rcfg := resilience.DefaultConfig()
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Resilience: &rcfg}
	sched := faults.Schedule{Events: []faults.Event{linkLossAt(0.2, 0, 3)}}
	c, res, rl := runResilient(t, cfg, sched, workload.Generate(workload.AzureCode, 8, n, 33))
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if c.DispatchTimeouts() != 0 {
		t.Fatalf("%d dispatches timed out despite a healthy peer to route to", c.DispatchTimeouts())
	}
	if rl.LinkFaults != 1 || rl.Recoveries == 0 {
		t.Fatalf("link fault accounting: %+v", rl)
	}
}

// TestRouterBlipHoldsAndFlushes: arrivals during a router blip park and
// flush when it ends; nothing is lost either way the mitigations are
// set.
func TestRouterBlipHoldsAndFlushes(t *testing.T) {
	const n = 40
	for _, armed := range []bool{false, true} {
		cfg := Config{Replicas: 2, Policy: LeastLoaded, Options: opts()}
		if armed {
			rcfg := resilience.DefaultConfig()
			cfg.Resilience = &rcfg
		}
		sched := faults.Schedule{Events: []faults.Event{
			{At: 0.3, Kind: faults.KindRouterBlip, Duration: units.FromMs(600)},
			{At: 0.5, Kind: faults.KindRouterBlip, Duration: units.FromMs(600)},
		}}
		_, res, rl := runResilient(t, cfg, sched, workload.Generate(workload.AzureCode, 10, n, 34))
		if got := res.Summary.Requests + res.Shed; got != n {
			t.Fatalf("armed=%v: completed %d + shed %d, want %d", armed, res.Summary.Requests, res.Shed, got)
		}
		// Overlapping blips form one episode: one flush, one recovery
		// attribution of the closing event's duration.
		if rl.Recoveries != 1 {
			t.Fatalf("armed=%v: recoveries = %d, want 1 blip episode", armed, rl.Recoveries)
		}
	}
}

// TestGracefulDrainHandsOffWaiting: a drain with mitigations armed
// hands the victim's waiting queue to peers, finishes in-flight work,
// and readmits — no crash, no lost requests. Without mitigations the
// same event degenerates to an abrupt crash/restart.
func TestGracefulDrainHandsOffWaiting(t *testing.T) {
	const n = 60
	sched := faults.Schedule{Events: []faults.Event{
		{At: 0.5, Kind: faults.KindReplicaDrain, Replica: 0, Recovery: 2},
	}}
	rcfg := resilience.DefaultConfig()
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Resilience: &rcfg}
	c, res, rl := runResilient(t, cfg, sched, workload.Generate(workload.AzureCode, 12, n, 35))
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if rl.Drains != 1 || c.Crashes() != 0 {
		t.Fatalf("graceful drain recorded drains=%d crashes=%d, want 1/0", rl.Drains, c.Crashes())
	}
	if rl.Handoffs == 0 {
		t.Fatal("drain handed off no waiting requests")
	}
	if rl.Recoveries != 1 || rl.RecoveryTime != 2 {
		t.Fatalf("readmission accounting: recoveries=%d time=%v, want 1/2s", rl.Recoveries, rl.RecoveryTime)
	}

	naive := Config{Replicas: 2, Policy: RoundRobin, Options: opts()}
	c2, res2, rl2 := runResilient(t, naive, sched, workload.Generate(workload.AzureCode, 12, n, 35))
	if got := res2.Summary.Requests + res2.Shed; got != n {
		t.Fatalf("naive drain: completed %d + shed %d, want %d", res2.Summary.Requests, res2.Shed, got)
	}
	if c2.Crashes() != 1 || rl2.Drains != 0 {
		t.Fatalf("naive drain must degenerate to a crash: crashes=%d drains=%d", c2.Crashes(), rl2.Drains)
	}
}

// TestHedgedStragglerWins: with one replica crippled, its requests
// straggle past the hedge threshold, a budgeted copy goes to the
// healthy peer, and at least one copy beats its primary. Env.Run must
// drain the losing copies so the KV invariants hold. Config.Resilience
// arms the mitigations on its own: no fault injector is attached.
func TestHedgedStragglerWins(t *testing.T) {
	const n = 30
	rcfg := resilience.DefaultConfig()
	rcfg.Hedge.Budget = 0.5 // generous budget so the cripple shows up
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Resilience: &rcfg}
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	c.replicas[0].env.GPU.SetSMHealth(0, 108, 0.02) // replica 0 crawls
	res := env.Run(c, workload.Generate(workload.AzureCode, 4, n, 36))
	rl := c.Resilience()
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if rl.Hedges == 0 {
		t.Fatal("no hedges dispatched against a crippled replica")
	}
	if rl.HedgeWins == 0 {
		t.Fatal("no hedge beat its straggling primary")
	}
	// The budget must hold: hedges ≤ max(MinBudget, Budget·dispatches).
	max := int(rcfg.Hedge.Budget*float64(n)) + rcfg.Hedge.MinBudget
	if rl.Hedges > max {
		t.Fatalf("hedges %d exceed budget bound %d", rl.Hedges, max)
	}
}

// TestCrashAfterHedgeWinDoesNotDuplicate is the settled-flight failover
// regression: replica 0 crawls, so its primaries straggle and their
// hedge copies win on replica 1 — leaving settled flights whose losing
// copy still decodes on replica 0. When replica 0 then crashes, the
// failover must not re-dispatch those already-completed requests
// (Env.Complete is exactly-once; a duplicate would end the run early
// with another request unserved).
func TestCrashAfterHedgeWinDoesNotDuplicate(t *testing.T) {
	const n = 30
	rcfg := resilience.DefaultConfig()
	rcfg.Hedge.Budget = 1 // hedge every straggler
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Resilience: &rcfg}
	sched := faults.Schedule{Events: []faults.Event{
		{At: 2, Kind: faults.KindReplicaCrash, Replica: 0, Recovery: 1},
	}}
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	c.replicas[0].env.GPU.SetSMHealth(0, 108, 0.02) // replica 0 crawls
	inj := faults.NewInjector(env.Sim, sched)
	c.AttachFaults(inj, core.DefaultWatchdog())
	inj.Arm()
	res := env.Run(c, workload.Generate(workload.AzureCode, 4, n, 41))
	rl := c.Resilience()
	if rl.HedgeWins == 0 {
		t.Fatal("scenario produced no hedge win before the crash")
	}
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	seen := map[string]bool{}
	for _, r := range res.Requests {
		if seen[r.ID] {
			t.Fatalf("request %s completed twice", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestTokenBucketRateLimitsByClass: a tight admission budget sheds
// best-effort traffic first — the per-class buckets scale 1:2:4 — and
// conservation holds (every request completes or sheds exactly once).
func TestTokenBucketRateLimitsByClass(t *testing.T) {
	const n = 80
	rcfg := resilience.DefaultConfig()
	rcfg.BucketRate = 400 // tokens/s base; azure-code means are far above
	rcfg.BucketBurst = 800
	cfg := Config{Replicas: 2, Policy: LeastLoaded, Options: opts(), Resilience: &rcfg}
	tr := workload.GenerateTenantMix(workload.AzureCode, 12, n, 37, workload.DefaultTenantMix())
	_, res, rl := runResilient(t, cfg, faults.Schedule{}, tr)
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if rl.RateLimited == 0 {
		t.Fatal("tight buckets rejected nothing")
	}
	sum := 0
	for _, v := range rl.RateLimitedByClass {
		sum += v
	}
	if sum != rl.RateLimited {
		t.Fatalf("per-class rejects %v sum to %d, total says %d", rl.RateLimitedByClass, sum, rl.RateLimited)
	}
	if res.Shed < rl.RateLimited {
		t.Fatalf("shed %d < rate-limited %d; every rejection must shed", res.Shed, rl.RateLimited)
	}
	// The premium bucket is 4× the best-effort one; with the default
	// 20/30/50 mix premium must not be the hardest hit.
	if rl.RateLimitedByClass[2] > rl.RateLimitedByClass[0] {
		t.Fatalf("premium rejected more than best-effort: %v", rl.RateLimitedByClass)
	}
}

// TestOverlappingCrashWindowsMTTR is the satellite regression: a second
// crash landing inside an open crash window is dropped (the machine is
// already down), so only one repair happens — MTTR must use the
// attributed repair time, not the scheduled downtime of both events.
func TestOverlappingCrashWindowsMTTR(t *testing.T) {
	const n = 40
	sched := faults.Schedule{Events: []faults.Event{
		{At: 0.3, Kind: faults.KindReplicaCrash, Replica: 0, Recovery: 2},
		{At: 0.5, Kind: faults.KindReplicaCrash, Replica: 0, Recovery: 2}, // folded: already down
	}}
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts()}
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	inj := faults.NewInjector(env.Sim, sched)
	c.AttachFaults(inj, core.DefaultWatchdog())
	inj.Arm()
	res := env.Run(c, workload.Generate(workload.AzureCode, 8, n, 38))
	rl := c.Resilience()
	rl.Downtime = inj.ScheduledDowntime()
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if rl.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 (second crash folded)", rl.Recoveries)
	}
	if rl.Downtime != 4 {
		t.Fatalf("scheduled downtime = %v, want 4s (both events)", rl.Downtime)
	}
	if rl.RecoveryTime != 2 {
		t.Fatalf("attributed recovery time = %v, want 2s (one repair)", rl.RecoveryTime)
	}
	if got := rl.MTTR(); got != 2 {
		t.Fatalf("MTTR = %v, want 2s — the legacy estimate would say %v", got, rl.Downtime/1)
	}
}

// chaosRun executes a full correlated-storm run at the given worker
// width, with and without mitigations, returning everything a
// determinism comparison needs.
func chaosRun(t testing.TB, workers int, armed bool) (serving.Result, metrics.Resilience) {
	t.Helper()
	cfg := Config{Replicas: 3, Policy: LeastLoaded, Options: opts(), Workers: workers}
	if armed {
		rcfg := resilience.DefaultConfig()
		rcfg.BucketRate = 3000
		rcfg.BucketBurst = 6000
		cfg.Resilience = &rcfg
	}
	ccfg := faults.DefaultChaosConfig(3, units.Seconds(12))
	ccfg.Seed = 5
	tr := workload.GenerateTenantMix(workload.AzureCode, 8, 80, 39, workload.DefaultTenantMix())
	_, res, rl := runResilient(t, cfg, faults.GenerateChaos(ccfg), tr)
	return res, rl
}

// TestChaosSerialParallelIdentical is the §16 determinism gate at unit
// scale: a correlated link-failure storm over a parallel cluster must
// produce identical results and resilience accounting at every worker
// width, mitigations on and off. ci.sh runs this under -race.
func TestChaosSerialParallelIdentical(t *testing.T) {
	for _, armed := range []bool{false, true} {
		res1, rl1 := chaosRun(t, 1, armed)
		for _, w := range []int{2, 4} {
			res, rl := chaosRun(t, w, armed)
			if !reflect.DeepEqual(res1, res) {
				t.Fatalf("armed=%v: results diverged between workers=1 and workers=%d", armed, w)
			}
			if rl1 != rl {
				t.Fatalf("armed=%v: resilience diverged between workers=1 and workers=%d:\n%+v\nvs\n%+v", armed, w, rl1, rl)
			}
		}
	}
}

// TestChaosTimelineRouterLane pins the timeline thread-through: every
// router-tier mitigation emits its instant on the "router" lane — link
// fault/restore, parked-dispatch timeout, blip hold, graceful drain and
// readmit, bucket rejection, and hedge — in one composite scenario, and
// the hedge, rate-limit, timeout, link-fault and drain counters equal
// their instant counts. A recorder forces serial advancement, so this
// also exercises the armed paths under the one-trace ordering.
func TestChaosTimelineRouterLane(t *testing.T) {
	const n = 60
	rcfg := resilience.DefaultConfig()
	rcfg.Hedge.Budget = 0.5 // generous: the crippled replica must straggle into hedges
	rcfg.BucketRate = 800   // tight: some best-effort arrivals must bounce
	rcfg.BucketBurst = 1600
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Resilience: &rcfg}
	sched := faults.Schedule{Events: []faults.Event{
		// Both links black-holed: the loose pick parks dispatches, the
		// 200ms timeout re-routes them until the links restore.
		linkLossAt(0.3, 0, 1.2),
		linkLossAt(0.3, 1, 1.2),
		{At: 0.8, Kind: faults.KindRouterBlip, Duration: units.FromMs(400)},
		{At: 2.0, Kind: faults.KindReplicaDrain, Replica: 1, Recovery: 1},
	}}
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	c.AttachTimeline(timeline.New(0))
	c.replicas[0].env.GPU.SetSMHealth(0, 108, 0.02) // replica 0 crawls: hedges fire
	inj := faults.NewInjector(env.Sim, sched)
	c.AttachFaults(inj, core.DefaultWatchdog())
	inj.Arm()
	tr := workload.GenerateTenantMix(workload.AzureCode, 10, n, 40, workload.DefaultTenantMix())
	res := env.Run(c, tr)
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	seen := map[string]int{}
	for _, ev := range c.tl.Events() {
		if ev.Lane == "router" {
			seen[ev.Name]++
		}
	}
	for _, want := range []string{
		"link-fault", "link-restore", "dispatch-timeout", "blip",
		"drain", "readmit", "rate-limit", "hedge",
	} {
		if seen[want] == 0 {
			t.Errorf("router lane missing %q instant (got %v)", want, seen)
		}
	}
	// Every router counter reconciles with its instants.
	rl := c.Resilience()
	for _, p := range []struct {
		instant string
		counter int
	}{
		{"hedge", rl.Hedges},
		{"rate-limit", rl.RateLimited},
		{"dispatch-timeout", c.DispatchTimeouts()},
		{"link-fault", rl.LinkFaults},
		{"drain", rl.Drains},
	} {
		if seen[p.instant] != p.counter {
			t.Errorf("%d %q instants, counter says %d", seen[p.instant], p.instant, p.counter)
		}
	}
}

// TestHedgeTimerSkipsParkedFlight: a hedge timer looks its flight up by
// request ID and copies only flights that a direct dispatch opened with
// hedging armed. Here the request goes straight to replica 0 and arms
// its timer; replica 0 crashes while the other two links are lost, so
// the failover parks the request on replica 1's dead link. When the old
// timer fires, replica 2's link is back and would take a copy, but the
// parked flight is not the timer's to hedge.
func TestHedgeTimerSkipsParkedFlight(t *testing.T) {
	rcfg := resilience.DefaultConfig()
	rcfg.DispatchTimeout = 5 // the parked dispatch waits for its link
	cfg := Config{Replicas: 3, Policy: RoundRobin, Options: opts(), Resilience: &rcfg}
	sched := faults.Schedule{Events: []faults.Event{
		linkLossAt(0.15, 2, 0.3),
		linkLossAt(0.2, 1, 3),
		{At: 0.3, Kind: faults.KindReplicaCrash, Replica: 0, Recovery: 2},
	}}
	tr := &workload.Trace{Dataset: "azure-code", Requests: []workload.Request{
		{ID: "r1", Arrival: 0.1, InputTokens: 512, OutputTokens: 200, Dataset: "azure-code"},
	}}
	c, res, rl := runResilient(t, cfg, sched, tr)
	if res.Summary.Requests != 1 || rl.Retried != 1 {
		t.Fatalf("completed %d, retried %d: want the request failed over once and completed", res.Summary.Requests, rl.Retried)
	}
	if len(c.replicas[1].env.Completed()) != 1 {
		t.Fatalf("replica completions %v: want the parked dispatch served by replica 1", c.Replicas())
	}
	if rl.Hedges != 0 {
		t.Fatalf("%d hedges: the old timer copied a parked dispatch's flight", rl.Hedges)
	}
}
