package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/units"
	"repro/internal/workload"
)

// outcomeDigest folds everything a cluster run hands back to its caller
// into one FNV-64a value: every metrics.Request field in completion
// order, the shed request IDs in shed order, the makespan, and the
// per-replica completion counts.
func outcomeDigest(res serving.Result, shed []workload.Request, counts []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	sec := func(s units.Seconds) { u64(math.Float64bits(s.Float())) }
	u64(uint64(len(res.Requests)))
	for _, r := range res.Requests {
		str(r.ID)
		str(r.Dataset)
		sec(r.Arrival)
		sec(r.PrefillStart)
		sec(r.FirstToken)
		sec(r.DecodeStart)
		sec(r.Finish)
		u64(uint64(r.InputTokens))
		u64(uint64(r.OutputTokens))
		str(r.Tenant)
	}
	u64(uint64(len(shed)))
	for _, w := range shed {
		str(w.ID)
	}
	sec(res.Makespan)
	u64(uint64(len(counts)))
	for _, n := range counts {
		u64(uint64(n))
	}
	return h.Sum64()
}

// oracleRow is one cluster scenario of this package's tests, rebuilt
// from the same configuration, fault schedule, trace and replica setup.
type oracleRow struct {
	name  string
	cfg   Config
	sched *faults.Schedule // nil: no injector attached
	trace *workload.Trace
	setup func(c *Cluster) // nil: none
	want  uint64
}

func armed(tune func(*resilience.Config)) *resilience.Config {
	rcfg := resilience.DefaultConfig()
	if tune != nil {
		tune(&rcfg)
	}
	return &rcfg
}

func oracleRows() []oracleRow {
	crawl := func(c *Cluster) { c.replicas[0].env.GPU.SetSMHealth(0, 108, 0.02) }
	drain := &faults.Schedule{Events: []faults.Event{
		{At: 0.5, Kind: faults.KindReplicaDrain, Replica: 0, Recovery: 2},
	}}
	chaos := func() *faults.Schedule {
		ccfg := faults.DefaultChaosConfig(3, units.Seconds(12))
		ccfg.Seed = 5
		s := faults.GenerateChaos(ccfg)
		return &s
	}
	chaosTrace := workload.GenerateTenantMix(workload.AzureCode, 8, 80, 39, workload.DefaultTenantMix())
	buckets := func(r *resilience.Config) { r.BucketRate, r.BucketBurst = 3000, 6000 }
	return []oracleRow{
		{
			name: "crash+degrade",
			cfg:  Config{Replicas: 3, Policy: LeastLoaded, Options: opts()},
			sched: &faults.Schedule{Events: []faults.Event{
				{At: 1.2, Kind: faults.KindReplicaCrash, Replica: 1, Recovery: 3},
				{At: 2.0, Kind: faults.KindSMDegrade, Replica: 0, FirstSM: 0, NumSMs: 40, Throttle: 0.5, Duration: 1},
			}},
			trace: workload.Generate(workload.AzureCode, 8, 90, 13),
			want:  0xef4e8b7d6505c3,
		},
		{
			name:  "link-loss-naive",
			cfg:   Config{Replicas: 2, Policy: RoundRobin, Options: opts()},
			sched: &faults.Schedule{Events: []faults.Event{linkLossAt(0.5, 0, 2)}},
			trace: workload.Generate(workload.AzureCode, 8, 40, 31),
			want:  0x76ea9ea8a9237fad,
		},
		{
			name:  "link-loss-resilient",
			cfg:   Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Resilience: armed(nil)},
			sched: &faults.Schedule{Events: []faults.Event{linkLossAt(0.2, 0, 3)}},
			trace: workload.Generate(workload.AzureCode, 8, 40, 33),
			want:  0x70d68a4ad99beb15,
		},
		{
			name: "hedged-straggler",
			cfg: Config{Replicas: 2, Policy: RoundRobin, Options: opts(),
				Resilience: armed(func(r *resilience.Config) { r.Hedge.Budget = 0.5 })},
			trace: workload.Generate(workload.AzureCode, 4, 30, 36),
			setup: crawl,
			want:  0x68f77b206005462f,
		},
		{
			name: "router-blip",
			cfg:  Config{Replicas: 2, Policy: LeastLoaded, Options: opts()},
			sched: &faults.Schedule{Events: []faults.Event{
				{At: 0.3, Kind: faults.KindRouterBlip, Duration: units.FromMs(600)},
				{At: 0.5, Kind: faults.KindRouterBlip, Duration: units.FromMs(600)},
			}},
			trace: workload.Generate(workload.AzureCode, 10, 40, 34),
			want:  0xce35ddef036e5d5e,
		},
		{
			name:  "graceful-drain",
			cfg:   Config{Replicas: 2, Policy: RoundRobin, Options: opts(), Resilience: armed(nil)},
			sched: drain,
			trace: workload.Generate(workload.AzureCode, 12, 60, 35),
			want:  0x521084b8aa842028,
		},
		{
			name:  "drain-as-crash",
			cfg:   Config{Replicas: 2, Policy: RoundRobin, Options: opts()},
			sched: drain,
			trace: workload.Generate(workload.AzureCode, 12, 60, 35),
			want:  0xaa25005cb546c153,
		},
		{
			name:  "chaos-naive",
			cfg:   Config{Replicas: 3, Policy: LeastLoaded, Options: opts()},
			sched: chaos(),
			trace: chaosTrace,
			want:  0x7729cf1e1362b94b,
		},
		{
			name:  "chaos-armed",
			cfg:   Config{Replicas: 3, Policy: LeastLoaded, Options: opts(), Resilience: armed(buckets)},
			sched: chaos(),
			trace: chaosTrace,
			want:  0xbc56394fe08a16a9,
		},
		{
			name:  "healthy-least-loaded",
			cfg:   Config{Replicas: 2, Policy: LeastLoaded, Options: opts()},
			trace: workload.Generate(workload.AzureCode, 6, 60, 1),
			want:  0xa2b166ec47610f15,
		},
		{
			name:  "healthy-round-robin",
			cfg:   Config{Replicas: 4, Policy: RoundRobin, Options: opts()},
			trace: workload.Generate(workload.AzureCode, 10, 80, 11),
			want:  0xe0a31e9c60826132,
		},
	}
}

// playRow runs one scenario at the given fork/join width. Env.Run ends
// by quiescing the cluster and checking that it drained.
func playRow(row oracleRow, workers int) (*serving.Env, serving.Result, *Cluster) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	cfg := row.cfg
	cfg.Workers = workers
	c := New(env, cfg)
	if row.setup != nil {
		row.setup(c)
	}
	if row.sched != nil {
		inj := faults.NewInjector(env.Sim, *row.sched)
		c.AttachFaults(inj, core.DefaultWatchdog())
		inj.Arm()
	}
	return env, env.Run(c, row.trace), c
}

// runOracleRow runs one scenario at the given fork/join width and
// returns its outcome digest.
func runOracleRow(row oracleRow, workers int) uint64 {
	env, res, c := playRow(row, workers)
	return outcomeDigest(res, env.ShedRequests(), c.Replicas())
}

// TestOutcomeOracle pins what every cluster scenario of this package
// delivers — each completion's full record in completion order, the
// sheds in order, the makespan and the per-replica counts — as digests
// recorded before replica advancement was narrowed to the replicas with
// an event due. Any change to how or when replicas advance must leave
// every digest unchanged, at one worker and at four.
func TestOutcomeOracle(t *testing.T) {
	for _, row := range oracleRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				if got := runOracleRow(row, w); got != row.want {
					t.Errorf("workers=%d: digest %#x, want %#x", w, got, row.want)
				}
			}
		})
	}
}

// TestRouterExactlyOnceSweep mixes the router's faults and hedging at
// random, where each fault row of TestOutcomeOracle replays one fixed
// schedule. Every seed draws a chaos storm with frequent drains and
// blips plus one replica crash, and on even seeds one replica crawls at
// 5% SM health; it runs on the naive router and on the armed one with
// eager hedging, at one worker and at four. Every trace request must
// complete or be shed exactly once, Env.Run's drain check must pass,
// and both worker counts must deliver the same outcomes.
func TestRouterExactlyOnceSweep(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 6
	}
	hedging := armed(func(r *resilience.Config) {
		r.Hedge.Budget = 0.5
		r.Hedge.After = units.FromMs(150)
	})
	var crashes, stale int
	var total metrics.Resilience
	for seed := int64(1); seed <= seeds; seed++ {
		ccfg := faults.DefaultChaosConfig(3, units.Seconds(12))
		ccfg.Seed = seed
		ccfg.DrainRate, ccfg.BlipRate = 0.4, 0.1
		sched := faults.GenerateChaos(ccfg)
		rng := rand.New(rand.NewSource(seed))
		crash := faults.Event{At: units.Seconds(12 * rng.Float64()), Kind: faults.KindReplicaCrash,
			Replica: rng.Intn(3), Recovery: 2}
		i := sort.Search(len(sched.Events), func(i int) bool { return sched.Events[i].At > crash.At })
		sched.Events = slices.Insert(sched.Events, i, crash)
		row := oracleRow{
			cfg:   Config{Replicas: 3, Policy: RoundRobin, Options: opts()},
			sched: &sched,
			trace: workload.GenerateTenantMix(workload.AzureCode, 8, 80, seed, workload.DefaultTenantMix()),
		}
		if seed%2 == 0 {
			crawler := int(seed/2) % 3
			row.setup = func(c *Cluster) { c.replicas[crawler].env.GPU.SetSMHealth(0, 108, 0.05) }
		}
		for _, rcfg := range []*resilience.Config{nil, hedging} {
			row.cfg.Resilience = rcfg
			var digests [2]uint64
			for wi, w := range []int{1, 4} {
				name := fmt.Sprintf("seed %d, armed %v, workers %d", seed, rcfg != nil, w)
				env, res, c := playChecked(t, name, row, w)
				seen := map[string]int{}
				for _, r := range res.Requests {
					seen[r.ID]++
				}
				for _, r := range env.ShedRequests() {
					seen[r.ID]++
				}
				if len(seen) != len(row.trace.Requests) {
					t.Fatalf("%s: %d distinct IDs resolved, trace has %d", name, len(seen), len(row.trace.Requests))
				}
				for _, r := range row.trace.Requests {
					if seen[r.ID] != 1 {
						t.Fatalf("%s: request %s resolved %d times", name, r.ID, seen[r.ID])
					}
				}
				digests[wi] = outcomeDigest(res, env.ShedRequests(), c.Replicas())
				crashes += c.Crashes()
				stale += c.StaleCompletions()
				total.Add(c.Resilience())
			}
			if digests[0] != digests[1] {
				t.Fatalf("seed %d, armed %v: digest %#x at workers 1, %#x at workers 4",
					seed, rcfg != nil, digests[0], digests[1])
			}
		}
	}
	// The sweep must reach every path it is meant to mix.
	for _, p := range []struct {
		what string
		n    int
	}{
		{"crashes", crashes}, {"stale completions", stale}, {"retries", total.Retried},
		{"drains", total.Drains}, {"handoffs", total.Handoffs}, {"link faults", total.LinkFaults},
		{"hedges", total.Hedges}, {"hedge wins", total.HedgeWins},
	} {
		if p.n == 0 {
			t.Errorf("no %s across the sweep", p.what)
		}
	}
	t.Logf("%d crashes, %d stale completions, %+v", crashes, stale, total)
}

// playChecked is playRow with a panic (a deadlock, or a leftover that
// Env.Run's drain check found) turned into a test failure naming the
// scenario.
func playChecked(t *testing.T, name string, row oracleRow, workers int) (env *serving.Env, res serving.Result, c *Cluster) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: %v", name, p)
		}
	}()
	return playRow(row, workers)
}
