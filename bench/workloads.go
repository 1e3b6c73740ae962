package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// spec is one benchmark workload: the traffic it replays and the
// deployment it replays it on. Arrivals are an open-loop Poisson
// schedule in virtual time; a round replays traces seeded seed,
// seed+1, ... back to back.
type spec struct {
	name string
	why  string

	dataset  workload.Dataset
	rate     float64 // offered load, requests per simulated second
	n        int     // requests per trace
	traces   int     // traces per round
	replicas int     // 0 runs one GPU, otherwise a cluster of Bullet replicas
	policy   cluster.Policy
	// storm arms router resilience and replays the ext-chaos
	// link-failure storm over 1.25x the trace horizon.
	storm bool
}

var specs = []spec{
	{
		name: "sharegpt-steady",
		why: "decode-heavy single GPU below saturation: water-filling re-rates, " +
			"the event loop and allocation dominate",
		dataset: workload.ShareGPT, rate: 10, n: 1000, traces: 2,
	},
	{
		name: "arxiv-backlog",
		why: "a burst of long prompts, 20x what one GPU serves: the waiting queue is " +
			"deep, so Algorithm 1 and the estimator dominate and gpusim barely shows",
		dataset: workload.ArxivSummary, rate: 30, n: 100, traces: 4,
	},
	{
		name: "cluster4-healthy",
		why: "4 least-loaded replicas, no faults: the per-decision fork/join barrier " +
			"and outbox merge that single-GPU runs never touch",
		dataset: workload.AzureCode, rate: 18, n: 600, traces: 2,
		replicas: 4, policy: cluster.LeastLoaded,
	},
	{
		name: "cluster4-storm",
		why: "4 round-robin replicas under a link-failure storm: failover, dispatch " +
			"timeouts, hedges and rate-limit sheds in the router",
		dataset: workload.AzureCode, rate: 5, n: 250, traces: 4,
		replicas: 4, policy: cluster.RoundRobin, storm: true,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// chaosStorm is the ext-chaos storm: storms arrive often and run hot, so
// for much of the run one or more replica links are black-holed.
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

// instance is one trace set up on a fresh deployment, ready to run.
type instance struct {
	spec   *spec
	trace  *workload.Trace
	env    *serving.Env
	sys    serving.System
	bullet *core.Bullet     // single-GPU workloads
	cl     *cluster.Cluster // cluster workloads
	inj    *faults.Injector // storm workload
}

// setup builds the trace and the deployment for one seed through the
// simulator's public entry points, timing each call, and returns the
// instance with the total set-up time. workers bounds a cluster's
// fork/join width; 0 keeps the default of one worker per core.
func (w *spec) setup(seed int64, n, workers int, l *spanLog) (*instance, time.Duration) {
	top := l.begin("setup")
	gpu, cfg := experiments.Platform()
	id := l.begin("core.FittedParams")
	opts := core.Options{Mode: core.ModeFull, Params: core.FittedParams(cfg, gpu)}
	l.end(id)

	in := &instance{spec: w}
	id = l.begin("workload.Generate")
	if w.storm {
		in.trace = workload.GenerateTenantMix(w.dataset, w.rate, n, seed, workload.DefaultTenantMix())
	} else {
		in.trace = workload.Generate(w.dataset, w.rate, n, seed)
	}
	l.end(id)

	id = l.begin("serving.NewEnv")
	in.env = serving.NewEnv(gpu, cfg, w.dataset.Name)
	in.env.MaxShed = n // keep every shed, so the exactly-once check sees them all
	l.end(id)

	if w.replicas == 0 {
		id = l.begin("core.New")
		in.bullet = core.New(in.env, opts)
		in.sys = in.bullet
		l.end(id)
		return in, l.end(top)
	}
	ccfg := cluster.Config{Replicas: w.replicas, Policy: w.policy, Options: opts, Workers: workers}
	if w.storm {
		rcfg := resilience.DefaultConfig()
		// The ext-chaos admission budget (12000 tokens/s and a 90000
		// burst at 10 req/s), scaled to the offered rate so the buckets
		// still clip part of the best-effort backlog behind outages.
		rcfg.BucketRate = 1200 * w.rate
		rcfg.BucketBurst = 9000 * w.rate
		ccfg.Resilience = &rcfg
	}
	id = l.begin("cluster.New")
	in.cl = cluster.New(in.env, ccfg)
	in.sys = in.cl
	l.end(id)
	if w.storm {
		id = l.begin("faults.GenerateChaos")
		horizon := units.Scale(units.Seconds(float64(n)/w.rate), 1.25)
		schedule := faults.GenerateChaos(chaosStorm(w.replicas, horizon, seed))
		l.end(id)
		in.inj = faults.NewInjector(in.env.Sim, schedule)
		in.cl.AttachFaults(in.inj, core.DefaultWatchdog())
		in.inj.Arm()
	}
	return in, l.end(top)
}

// attach threads a timeline recorder through the deployment. A cluster
// with a recorder advances its replicas serially.
func (in *instance) attach(rec *timeline.Recorder) {
	if in.cl != nil {
		in.cl.AttachTimeline(rec)
		return
	}
	in.bullet.AttachTimeline(rec)
}

// outcome is what one trace run produced.
type outcome struct {
	res  serving.Result
	shed []workload.Request
	// panicked holds the message of a recovered panic; the run's
	// requests then all count as lost.
	panicked string
}

// run replays the trace to completion and returns the run's wall time.
// A panic is recovered into the outcome, so one failing trace is
// reported instead of ending the benchmark.
func (in *instance) run(l *spanLog) (o outcome, wall time.Duration) {
	top := l.begin("run")
	defer func() {
		if r := recover(); r != nil {
			o = outcome{panicked: fmt.Sprintf("%s seed %d: %v", in.spec.name, in.trace.Seed, r)}
		}
		wall = l.end(top)
	}()
	id := l.begin("serving.Env.Run")
	o.res = in.env.Run(in.sys, in.trace)
	l.end(id)
	if in.cl != nil {
		id = l.begin("cluster.Quiesce")
		in.cl.Quiesce()
		in.cl.CheckDrained()
		l.end(id)
	}
	o.shed = in.env.ShedRequests()
	return o, 0
}

// lost counts the trace's requests that did not complete or shed exactly
// once, plus any completion or shed of an ID outside the trace, and
// describes the first violation.
func lost(tr *workload.Trace, o outcome) (int, string) {
	if o.panicked != "" {
		return len(tr.Requests), "panic: " + o.panicked
	}
	seen := make(map[string]int, len(tr.Requests))
	for _, r := range tr.Requests {
		seen[r.ID] = 0
	}
	var n int
	var first string
	mark := func(id string) {
		c, ok := seen[id]
		if !ok {
			n++
			if first == "" {
				first = fmt.Sprintf("seed %d: request %q is not in the trace", tr.Seed, id)
			}
			return
		}
		seen[id] = c + 1
	}
	for _, r := range o.res.Requests {
		mark(r.ID)
	}
	for _, r := range o.shed {
		mark(r.ID)
	}
	for _, r := range tr.Requests {
		if c := seen[r.ID]; c != 1 {
			n++
			if first == "" {
				first = fmt.Sprintf("seed %d: request %q resolved %d times", tr.Seed, r.ID, c)
			}
		}
	}
	return n, first
}

// digest is an FNV-64a hash over every completion record, in completion
// order, and every shed ID: two runs of one seed must agree on it.
func digest(o outcome) uint64 {
	h := fnv.New64a()
	var buf []byte
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, r := range o.res.Requests {
		buf = buf[:0]
		str(r.ID)
		str(r.Tenant)
		for _, t := range []units.Seconds{r.Arrival, r.PrefillStart, r.FirstToken, r.DecodeStart, r.Finish} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Float()))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.InputTokens))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.OutputTokens))
		h.Write(buf)
	}
	h.Write([]byte("shed"))
	for _, r := range o.shed {
		buf = buf[:0]
		str(r.ID)
		h.Write(buf)
	}
	return h.Sum64()
}

// simOutputs are the simulated serving results of one round, pure
// functions of the seed.
type simOutputs struct {
	sent, completed, shed int
	goodput               float64 // SLO-meeting req/s, mean over the round's traces
	slo                   float64 // SLO-meeting share of requests sent
	ttftP50, ttftP99      float64 // seconds
	tpotP99Ms             float64
}

func summarize(w *spec, traces []*workload.Trace, outs []outcome) simOutputs {
	slo := metrics.SLOFor(w.dataset.Name)
	var s simOutputs
	var ttft []units.Seconds
	var tpot []float64
	met := 0
	for i, o := range outs {
		s.sent += len(traces[i].Requests)
		s.completed += len(o.res.Requests)
		s.shed += len(o.shed)
		s.goodput += o.res.Summary.Goodput / float64(len(outs))
		for _, r := range o.res.Requests {
			ttft = append(ttft, r.TTFT())
			if r.OutputTokens > 1 {
				tpot = append(tpot, r.TPOTMs())
			}
			if r.MeetsSLO(slo) {
				met++
			}
		}
	}
	if s.sent > 0 {
		s.slo = float64(met) / float64(s.sent)
	}
	if len(ttft) > 0 {
		s.ttftP50 = metrics.PercentileInPlace(ttft, 0.5).Float()
		s.ttftP99 = metrics.PercentileInPlace(ttft, 0.99).Float()
	}
	if len(tpot) > 0 {
		s.tpotP99Ms = metrics.PercentileInPlace(tpot, 0.99)
	}
	return s
}
