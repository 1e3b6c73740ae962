package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

func opts() core.Options {
	return core.Options{Mode: core.ModeFull, Params: estimator.DefaultParams()}
}

func run(t testing.TB, cfg Config, rate float64, n int, seed int64) (*Cluster, serving.Result) {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	res := env.Run(c, workload.Generate(workload.AzureCode, rate, n, seed))
	return c, res
}

func TestClusterCompletesAll(t *testing.T) {
	c, res := run(t, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()}, 6, 60, 1)
	if res.Summary.Requests != 60 {
		t.Fatalf("completed %d/60", res.Summary.Requests)
	}
	counts := c.Replicas()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 60 {
		t.Fatalf("replica counts %v sum to %d", counts, total)
	}
	if !strings.HasPrefix(res.System, "cluster-2x") {
		t.Fatalf("name = %s", res.System)
	}
}

// TestOneReplicaMatchesBareBullet: a 1-replica cluster serves exactly
// what one bare Bullet instance serves — every request's metrics, in
// completion order, and the makespan — so the router, the pump and the
// replica's private clock add nothing. (On the sampled backend the two
// differ by design: the replica draws from ForkSeed(seed, 0).)
func TestOneReplicaMatchesBareBullet(t *testing.T) {
	bullet := core.Options{Mode: core.ModeFull}
	for _, d := range workload.Datasets {
		for _, rate := range []float64{2, 6, 12} {
			trace := workload.Generate(d, rate, 150, 42)
			envB := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), d.Name)
			bare := envB.Run(core.New(envB, bullet), trace)
			envC := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), d.Name)
			one := envC.Run(New(envC, Config{Replicas: 1, Policy: LeastLoaded, Options: bullet}), trace)
			if !reflect.DeepEqual(one.Requests, bare.Requests) || one.Makespan != bare.Makespan {
				t.Errorf("%s @ %v req/s: 1-replica cluster (%d requests, makespan %v) differs from bare Bullet (%d, %v)",
					d.Name, rate, len(one.Requests), one.Makespan, len(bare.Requests), bare.Makespan)
			}
		}
	}
}

func TestRoundRobinBalances(t *testing.T) {
	c, _ := run(t, Config{Replicas: 3, Policy: RoundRobin, Options: opts()}, 6, 60, 2)
	for _, n := range c.Replicas() {
		if n != 20 {
			t.Fatalf("round-robin counts = %v", c.Replicas())
		}
	}
}

func TestLeastLoadedBeatsRoundRobinOnSkewedLoad(t *testing.T) {
	// With heavy-tailed input lengths, token-aware routing should give
	// no worse P90 normalized TTFT than blind round-robin.
	mk := func(p Policy) float64 {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
		c := New(env, Config{Replicas: 2, Policy: p, Options: opts()})
		res := env.Run(c, workload.Generate(workload.AzureCode, 8, 120, 3))
		return res.Summary.P90NormTTFT
	}
	rr := mk(RoundRobin)
	ll := mk(LeastLoaded)
	if ll > rr*1.3 {
		t.Fatalf("least-loaded P90 %.2f much worse than round-robin %.2f", ll, rr)
	}
}

func TestJSQPolicyRuns(t *testing.T) {
	_, res := run(t, Config{Replicas: 2, Policy: JoinShortestQueue, Options: opts()}, 6, 40, 4)
	if res.Summary.Requests != 40 {
		t.Fatalf("completed %d", res.Summary.Requests)
	}
}

func TestScaleOutIncreasesCapacity(t *testing.T) {
	// At a rate that saturates one GPU, two replicas must serve with
	// much lower latency and no worse SLO attainment.
	env1 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	one := core.New(env1, opts())
	res1 := env1.Run(one, workload.Generate(workload.AzureCode, 11, 120, 5))

	env2 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	two := New(env2, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()})
	res2 := env2.Run(two, workload.Generate(workload.AzureCode, 11, 120, 5))

	if res2.Summary.SLOAttainment < res1.Summary.SLOAttainment-0.05 {
		t.Fatalf("2 replicas SLO %.2f well below 1 replica %.2f",
			res2.Summary.SLOAttainment, res1.Summary.SLOAttainment)
	}
	if res2.Summary.MeanTTFT > res1.Summary.MeanTTFT*0.7 {
		t.Fatalf("2 replicas TTFT %.3f not well below 1 replica %.3f",
			res2.Summary.MeanTTFT, res1.Summary.MeanTTFT)
	}
}

func TestDeterminism(t *testing.T) {
	_, a := run(t, DefaultConfigWith(opts()), 5, 40, 9)
	_, b := run(t, DefaultConfigWith(opts()), 5, 40, 9)
	if a.Summary != b.Summary {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Summary, b.Summary)
	}
}

// DefaultConfigWith returns the default config with custom options.
func DefaultConfigWith(o core.Options) Config {
	c := DefaultConfig()
	c.Options = o
	return c
}

// TestSerialParallelByteIdentical pins the fork/join isolation contract
// end to end: the full Result (every per-request record, GPU counters,
// makespan) and the per-replica completion counts are byte-identical
// whether replicas advance serially or on several workers. Run with
// -race, this doubles as the data-race proof for the harness.
func TestSerialParallelByteIdentical(t *testing.T) {
	ref, refCounts := func() (serving.Result, []int) {
		cfg := Config{Replicas: 4, Policy: RoundRobin, Options: opts(), Workers: 1}
		c, res := run(t, cfg, 10, 80, 11)
		return res, c.Replicas()
	}()
	for _, w := range []int{2, 4, 0} {
		cfg := Config{Replicas: 4, Policy: RoundRobin, Options: opts(), Workers: w}
		c, res := run(t, cfg, 10, 80, 11)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d diverged from serial: %+v vs %+v", w, res.Summary, ref.Summary)
		}
		if !reflect.DeepEqual(refCounts, c.Replicas()) {
			t.Fatalf("workers=%d replica counts %v, serial %v", w, c.Replicas(), refCounts)
		}
	}
}

// TestSerialParallelByteIdenticalTwinArrivals is the equivalence on a
// run whose windows really fork: a window forks only the replicas with
// an event due, and every request arrives twice at once (same lengths,
// distinct IDs), so round-robin hands the two replicas identical work
// and nearly every window finds both due at the same instant. Under
// -race this is the concurrent case of the data-race gate.
func TestSerialParallelByteIdenticalTwinArrivals(t *testing.T) {
	base := workload.Generate(workload.AzureCode, 6, 60, 12)
	twins := *base
	twins.Requests = nil
	for _, r := range base.Requests {
		twin := r
		twin.ID += "-twin"
		twins.Requests = append(twins.Requests, r, twin)
	}
	mk := func(workers int) (serving.Result, []int) {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
		c := New(env, Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Workers: workers})
		res := env.Run(c, &twins)
		if cap(c.due) < 2 {
			t.Fatalf("workers=%d: no window had both replicas due; the run never forked", workers)
		}
		return res, c.Replicas()
	}
	ref, refCounts := mk(1)
	if ref.Summary.Requests != len(twins.Requests) {
		t.Fatalf("completed %d/%d", ref.Summary.Requests, len(twins.Requests))
	}
	for _, w := range []int{2, 0} {
		res, counts := mk(w)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d diverged from serial: %+v vs %+v", w, res.Summary, ref.Summary)
		}
		if !reflect.DeepEqual(refCounts, counts) {
			t.Fatalf("workers=%d replica counts %v, serial %v", w, counts, refCounts)
		}
	}
}

// TestPumpDecisionOneAlloc pins the cost of a pump decision that
// advances one replica through an event that allocates nothing: one
// allocation, the fork-site task closure. The pump New made is scheduled
// again, the one-task region runs inline, and the due set, the merge and
// the replica's event all reuse their storage.
func TestPumpDecisionOneAlloc(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()})
	rsim := c.replicas[0].env.Sim
	if n := rsim.Pending() + c.replicas[1].env.Sim.Pending(); n != 0 {
		t.Fatalf("idle replicas hold %d events", n)
	}
	noop := func() {}
	decision := func() {
		rsim.PostAfter(1e-6, noop)
		c.schedulePump()
		if !env.Sim.Step() {
			t.Fatal("the pump was not scheduled")
		}
	}
	decision() // warm: the outer queue, the due set, the replica's event arena
	if got := testing.AllocsPerRun(100, decision); got != 1 {
		t.Errorf("pump decision: %v allocs/op, want 1 (the task closure)", got)
	}
	if rsim.Now() != env.Sim.Now() || c.replicas[1].env.Sim.Now() != env.Sim.Now() {
		t.Fatalf("replica clocks %v, %v left behind the router's %v",
			rsim.Now(), c.replicas[1].env.Sim.Now(), env.Sim.Now())
	}
}

// TestSerialParallelByteIdenticalUnderFaults extends the equivalence to
// the resilience path: crash, failover, recovery, and stale-completion
// swallowing must all land identically at every worker count.
func TestSerialParallelByteIdenticalUnderFaults(t *testing.T) {
	mk := func(workers int) (serving.Result, metrics.Resilience, int) {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
		c := New(env, Config{Replicas: 3, Policy: LeastLoaded, Options: opts(), Workers: workers})
		inj := faults.NewInjector(env.Sim, faults.Schedule{Events: []faults.Event{
			{At: 1.2, Kind: faults.KindReplicaCrash, Replica: 1, Recovery: 3},
			{At: 2.0, Kind: faults.KindSMDegrade, Replica: 0, FirstSM: 0, NumSMs: 40, Throttle: 0.5, Duration: 1},
		}})
		c.AttachFaults(inj, core.DefaultWatchdog())
		inj.Arm()
		res := env.Run(c, workload.Generate(workload.AzureCode, 8, 90, 13))
		c.CheckDrained()
		return res, c.Resilience(), c.StaleCompletions()
	}
	ref, refRl, refStale := mk(1)
	if ref.Summary.Requests+ref.Shed != 90 {
		t.Fatalf("faulty run lost requests: %d completed + %d shed", ref.Summary.Requests, ref.Shed)
	}
	for _, w := range []int{3, 0} {
		res, rl, stale := mk(w)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d result diverged from serial", w)
		}
		if rl != refRl || stale != refStale {
			t.Fatalf("workers=%d resilience %+v/%d, serial %+v/%d", w, rl, stale, refRl, refStale)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	for _, cfg := range []Config{
		{Replicas: 0, Policy: RoundRobin},
		{Replicas: 2, Policy: "nope"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			cfg.Options = opts()
			New(env, cfg)
		}()
	}
}

func TestGPUStats(t *testing.T) {
	c, _ := run(t, Config{Replicas: 2, Policy: RoundRobin, Options: opts()}, 4, 30, 7)
	stats := c.GPUStats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d replicas", len(stats))
	}
	for i, s := range stats {
		if s.FLOPs <= 0 {
			t.Fatalf("replica %d did no work", i)
		}
	}
}

// TestPrefixCacheReplicasDrain: each replica's prefix cache holds shared
// prefix blocks until its environment drains. The cluster must run every
// replica's end-of-run hook, so the KV check finds the pools empty
// instead of reporting the cached prefixes as a leak.
func TestPrefixCacheReplicasDrain(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	o := opts()
	o.EnablePrefixCache = true
	c := New(env, Config{Replicas: 2, Policy: LeastLoaded, Options: o})
	res := env.Run(c, workload.GenerateShared(workload.ShareGPT, 6, 40, 1, 4, 1024, 0.8))
	c.CheckDrained()
	if res.Summary.Requests != 40 {
		t.Fatalf("completed %d/40", res.Summary.Requests)
	}
}

// TestCheckDrainedCatchesRouterLeftovers plants router accounting that a
// finished run must have released and expects CheckDrained to refuse
// each one. A wider conservative window leans on this guard: Quiesce
// must deliver every pending outcome.
func TestCheckDrainedCatchesRouterLeftovers(t *testing.T) {
	ghost := workload.Request{ID: "ghost", InputTokens: 64, OutputTokens: 8}
	for _, p := range []struct {
		name  string
		plant func(c *Cluster)
	}{
		{"flight", func(c *Cluster) {
			c.flights[ghost.ID] = &flight{req: ghost, primary: c.replicas[1], reps: []*replica{c.replicas[1]}}
		}},
		{"tokens", func(c *Cluster) { c.replicas[1].tokens += ghost.InputTokens }},
	} {
		t.Run(p.name, func(t *testing.T) {
			c, _ := run(t, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()}, 6, 20, 1)
			p.plant(c)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "cluster: ") {
					t.Fatalf("CheckDrained accepted a leftover %s entry (panic %q)", p.name, msg)
				}
			}()
			c.CheckDrained()
		})
	}
}
