package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/qos"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// runFaulty drives a cluster run with an explicit fault schedule — a
// timeline recorder attached, exercising per-replica span scoping on
// every fault path — and returns the cluster, the result, the full
// resilience accounting (router + replicas + injector) and the exported
// trace.
func runFaulty(t testing.TB, cfg Config, sched faults.Schedule, rate float64, n int, seed int64) (*Cluster, serving.Result, metrics.Resilience, []byte) {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	c.AttachTimeline(timeline.New(0))
	inj := faults.NewInjector(env.Sim, sched)
	c.AttachFaults(inj, core.DefaultWatchdog())
	inj.Arm()
	res := env.Run(c, workload.Generate(workload.AzureCode, rate, n, seed))
	rl := c.Resilience()
	rl.FaultsInjected = inj.Injected()
	rl.Downtime = inj.ScheduledDowntime()
	var buf bytes.Buffer
	if err := c.tl.WriteChrome(&buf); err != nil {
		t.Fatalf("exporting cluster trace: %v", err)
	}
	return c, res, rl, buf.Bytes()
}

func crashAt(at units.Seconds, replica int, recovery units.Seconds) faults.Schedule {
	return faults.Schedule{Events: []faults.Event{{
		At: at, Kind: faults.KindReplicaCrash, Replica: replica, Recovery: recovery,
	}}}
}

// TestReplicaCrashFailsOver is the cluster half of the tentpole
// acceptance check: a mid-run crash fails the victim's in-flight
// requests over to the survivor, a fresh replica is readmitted after the
// recovery delay, and every request still ends completed or shed.
func TestReplicaCrashFailsOver(t *testing.T) {
	const n = 60
	cfg := Config{Replicas: 2, Policy: LeastLoaded, Options: opts()}
	c, res, rl, _ := runFaulty(t, cfg, crashAt(0.5, 0, 1), 6, n, 21)
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d = %d, want %d", res.Summary.Requests, res.Shed, got, n)
	}
	if c.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", c.Crashes())
	}
	if rl.FaultsInjected != 1 {
		t.Fatalf("injected = %d, want 1", rl.FaultsInjected)
	}
	if rl.Retried == 0 {
		t.Fatal("no in-flight requests failed over at the crash")
	}
	if rl.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 (the readmission)", rl.Recoveries)
	}
	if rl.Downtime != 1 {
		t.Fatalf("downtime = %v, want the 1s recovery delay", rl.Downtime)
	}
}

// TestZombieCompletionsSwallowed: the crashed replica keeps draining
// whatever was on its GPU, but it owns nothing — its late completions
// must be swallowed by the ownership check, never double-counted.
func TestZombieCompletionsSwallowed(t *testing.T) {
	const n = 60
	cfg := Config{Replicas: 2, Policy: RoundRobin, Options: opts()}
	c, res, _, _ := runFaulty(t, cfg, crashAt(0.8, 1, 40), 8, n, 22)
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, n)
	}
	if c.StaleCompletions() == 0 {
		t.Fatal("the draining zombie produced no stale completions to swallow")
	}
	if len(res.Requests) != res.Summary.Requests {
		t.Fatalf("result carries %d requests but summary counts %d", len(res.Requests), res.Summary.Requests)
	}
}

// TestAllReplicasDownDefersArrivals: with the only replica down,
// arrivals (and the failover re-submissions) are deferred and flushed to
// the fresh replica at readmission; nothing is lost.
func TestAllReplicasDownDefersArrivals(t *testing.T) {
	const n = 30
	cfg := Config{Replicas: 1, Policy: RoundRobin, Options: opts()}
	c, res, rl, _ := runFaulty(t, cfg, crashAt(0.3, 0, 2), 6, n, 23)
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d, want %d", res.Summary.Requests, res.Shed, got)
	}
	if c.Crashes() != 1 || rl.Recoveries != 1 {
		t.Fatalf("crashes %d / recoveries %d, want 1/1", c.Crashes(), rl.Recoveries)
	}
	// Everything after t=0.3 ran on the readmitted replica.
	if got := c.Replicas()[0]; got == 0 {
		t.Fatal("readmitted replica completed nothing")
	}
}

// TestRoutedDeviceFaultsHitOnlyTheirReplica: SM-degrade and stall events
// carry a replica index; they must land on that replica's device alone.
func TestRoutedDeviceFaultsHitOnlyTheirReplica(t *testing.T) {
	sched := faults.Schedule{Events: []faults.Event{
		{At: 0.2, Kind: faults.KindSMDegrade, Replica: 1,
			FirstSM: 54, NumSMs: 54, Throttle: 0, Duration: 1},
		{At: 0.4, Kind: faults.KindEngineStall, Replica: 0,
			Target: faults.TargetDecode, Stall: units.FromMs(20)},
	}}
	cfg := Config{Replicas: 2, Policy: LeastLoaded, Options: opts()}
	c, res, rl, _ := runFaulty(t, cfg, sched, 6, 40, 24)
	if res.Summary.Requests+res.Shed != 40 {
		t.Fatalf("completed %d + shed %d, want 40", res.Summary.Requests, res.Shed)
	}
	if got := c.replicas[1].sys.Resources.Rebuilds(); got != 2 {
		t.Fatalf("target replica rebuilds = %d, want 2 (fault + recovery)", got)
	}
	if got := c.replicas[0].sys.Resources.Rebuilds(); got != 0 {
		t.Fatalf("untargeted replica rebuilt %d times", got)
	}
	if rl.FaultsInjected != 2 {
		t.Fatalf("injected = %d, want 2", rl.FaultsInjected)
	}
}

// TestClusterFaultDeterminism: a generated schedule mixing all three
// fault kinds over a cluster must replay bit-identically.
func TestClusterFaultDeterminism(t *testing.T) {
	fcfg := faults.DefaultConfig(108, units.Seconds(20))
	fcfg.Seed = 7
	fcfg.Replicas = 2
	fcfg.DegradeRate = 0.1
	fcfg.StallRate = 0.1
	fcfg.CrashRate = 0.05
	cfg := Config{Replicas: 2, Policy: LeastLoaded, Options: opts()}
	_, a, ra, ta := runFaulty(t, cfg, faults.Generate(fcfg), 5, 40, 25)
	_, b, rb, tb := runFaulty(t, cfg, faults.Generate(fcfg), 5, 40, 25)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a.Summary, b.Summary)
	}
	if ra != rb {
		t.Fatalf("resilience diverged: %+v vs %+v", ra, rb)
	}
	if !bytes.Equal(ta, tb) {
		t.Fatalf("cluster trace JSON diverged (%d vs %d bytes)", len(ta), len(tb))
	}
	if !strings.Contains(string(ta), `"name":"replica1"`) {
		t.Fatal("trace lacks per-replica process scoping")
	}
}

func TestAttachFaultsTwicePanics(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()})
	inj := faults.NewInjector(env.Sim, faults.Schedule{})
	c.AttachFaults(inj, core.DefaultWatchdog())
	defer func() {
		if recover() == nil {
			t.Fatal("second AttachFaults accepted")
		}
	}()
	c.AttachFaults(faults.NewInjector(env.Sim, faults.Schedule{}), core.DefaultWatchdog())
}

// TestRoutingUnderUnequalReplicaSpeeds pins the token-aware policy
// against heterogeneous hardware: with one replica throttled to a
// fraction of its compute, both replicas must keep serving (the slow
// one is not starved, the fast one is not ignored), every request must
// finish, and the drained invariants must hold.
func TestRoutingUnderUnequalReplicaSpeeds(t *testing.T) {
	const n = 80
	t.Run(string(LeastLoaded), func(t *testing.T) {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
		c := New(env, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()})
		// Replica 0 runs at 30% speed across the whole device.
		c.replicas[0].env.GPU.SetSMHealth(0, 108, 0.3)
		res := env.Run(c, workload.Generate(workload.AzureCode, 9, n, 26))
		if res.Summary.Requests != n {
			t.Fatalf("completed %d/%d", res.Summary.Requests, n)
		}
		counts := c.Replicas()
		if counts[0] == 0 {
			t.Fatalf("starved the slow replica: %v", counts)
		}
		if counts[1] == 0 {
			t.Fatalf("ignored the fast replica: %v", counts)
		}
		if counts[0]+counts[1] != n {
			t.Fatalf("counts %v do not sum to %d", counts, n)
		}
	})
}

// TestReplacedReplicaKeepsItsCounters: a restart replaces the crashed
// instance, and the cluster totals must still count what that instance
// did. Replica 0 repairs an SM degrade (one watchdog recovery of 0.3 s)
// and later crashes; Resilience must report both repairs, and QoS the
// completions and prefill tokens the instance served before the crash.
func TestReplacedReplicaKeepsItsCounters(t *testing.T) {
	degrade := faults.Event{At: 0.2, Kind: faults.KindSMDegrade, Replica: 0,
		FirstSM: 0, NumSMs: 54, Throttle: 0.5, Duration: 0.3}
	crash := faults.Event{At: 1.0, Kind: faults.KindReplicaCrash, Replica: 0, Recovery: 1}
	o := opts()
	o.QoS = true
	for _, p := range []struct {
		name     string
		events   []faults.Event
		recs     int
		recovery units.Seconds
	}{
		{"degrade", []faults.Event{degrade}, 1, 0.3},
		{"degrade+crash", []faults.Event{degrade, crash}, 2, 1 + 0.3},
	} {
		t.Run(p.name, func(t *testing.T) {
			env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
			c := New(env, Config{Replicas: 2, Policy: LeastLoaded, Options: o})
			inj := faults.NewInjector(env.Sim, faults.Schedule{Events: p.events})
			c.AttachFaults(inj, core.DefaultWatchdog())
			inj.Arm()
			res := env.Run(c, workload.Generate(workload.AzureCode, 12, 30, 5))
			rl := c.Resilience()
			if rl.Recoveries != p.recs || rl.RecoveryTime != p.recovery {
				t.Fatalf("recoveries %d over %v, want %d over %v", rl.Recoveries, rl.RecoveryTime, p.recs, p.recovery)
			}
			// Every delivered completion counts once; its prefill was
			// done, and counted, by some instance, and stale and
			// hedge-loser copies only add tokens.
			acct := c.QoS()
			completed, tokens := 0, 0
			for cl := range acct.Completed {
				completed += acct.Completed[cl]
			}
			for _, r := range res.Requests {
				tokens += r.InputTokens
			}
			if completed != len(res.Requests) || acct.TotalPrefillTokens() < tokens {
				t.Fatalf("QoS accounting counts %d completions and %d prefill tokens for the %d requests and %d input tokens delivered",
					completed, acct.TotalPrefillTokens(), len(res.Requests), tokens)
			}
		})
	}
}

// TestQoSCountsEachOutcomeOnce: a crashed replica keeps draining its GPU,
// and its QoS controller counts completions that the router then
// discards as stale. The cluster's per-class counts hold each delivered
// outcome once, in its tenant's class.
func TestQoSCountsEachOutcomeOnce(t *testing.T) {
	o := opts()
	o.QoS = true
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, Config{Replicas: 2, Policy: RoundRobin, Options: o})
	crash := faults.Event{At: 0.8, Kind: faults.KindReplicaCrash, Replica: 1, Recovery: 40}
	inj := faults.NewInjector(env.Sim, faults.Schedule{Events: []faults.Event{crash}})
	c.AttachFaults(inj, core.DefaultWatchdog())
	inj.Arm()
	res := env.Run(c, workload.GenerateTenantMix(workload.AzureCode, 8, 60, 22, workload.DefaultTenantMix()))
	if c.StaleCompletions() == 0 {
		t.Fatal("no stale completion: the crashed replica never finished a request it lost")
	}
	var want [qos.NumClasses]int
	for _, r := range res.Requests {
		want[qos.ClassOf(r.Tenant)]++
	}
	if got := c.QoS(); got.Completed != want || got.Shed != [qos.NumClasses]int{} {
		t.Fatalf("per-class completed %v shed %v, want %v delivered and none shed (%d shed)",
			got.Completed, got.Shed, want, res.Shed)
	}
}
