package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpusim"
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
		{
			name:  "healthy-jsq",
			cfg:   Config{Replicas: 2, Policy: JoinShortestQueue, Options: opts()},
			trace: workload.Generate(workload.AzureCode, 6, 40, 4),
			want:  0xc288211d1bd229c7,
		},
	}
}

// runOracleRow runs one scenario at the given fork/join width and
// returns its outcome digest.
func runOracleRow(row oracleRow, workers int) uint64 {
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
	res := env.Run(c, row.trace)
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
