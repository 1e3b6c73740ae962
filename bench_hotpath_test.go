// Steady-state microbenchmarks for every //bullet:hotpath root. Unlike
// the table/figure benchmarks in bench_test.go these measure single
// inner-loop operations, so -benchmem allocs/op numbers here are the
// ground truth behind BENCH_hotpath.json and the allocation contract in
// DESIGN.md §13. Run with:
//
//	go test -bench BenchmarkHotPaths -benchmem -benchtime 100000x .
package repro

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkHotPaths groups one steady-state sub-benchmark per annotated
// hot path so the whole contract is measured with a single -bench
// selector.
func BenchmarkHotPaths(b *testing.B) {
	b.Run("sim/post-step", benchSimPostStep)
	b.Run("sim/schedule-cancel", benchSimScheduleCancel)
	b.Run("gpusim/rerate", benchGPUReRate)
	b.Run("sched/decide", benchSchedDecide)
	b.Run("sched/decide-backlog", benchSchedDecideBacklog)
	b.Run("resource/rebuild", benchResourceRebuild)
	b.Run("resource/stream", benchResourceStream)
	b.Run("timeline/span-enabled", benchTimelineSpanEnabled)
	b.Run("timeline/span-disabled", benchTimelineSpanDisabled)
	b.Run("kvcache/alloc-free", benchKVAllocFree)
	b.Run("kvcache/extend", benchKVExtend)
	b.Run("pressure/admit", benchPressureAdmit)
	b.Run("metrics/percentile", benchMetricsPercentile)
	b.Run("qos/observe-decide", benchQoSObserve)
}

// benchSimPostStep measures the pooled schedule+fire cycle: one event
// posted and consumed per iteration, the event-loop steady state.
func benchSimPostStep(b *testing.B) {
	s := sim.New()
	fn := func() {}
	// Warm the arena so the measured loop sees only reuse.
	for i := 0; i < 256; i++ {
		s.PostAfter(1e-6, fn)
	}
	for s.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PostAfter(1e-6, fn)
		s.Step()
	}
}

// benchSimScheduleCancel measures a caller-owned event scheduled and
// cancelled. gpusim keeps one completion event per launch struct and
// moves it with Schedule on every re-rate (gpusim/rerate); the cluster's
// pump is scheduled or cancelled at every router decision.
func benchSimScheduleCancel(b *testing.B) {
	s := sim.New()
	e := sim.NewEvent(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(e, s.Now()+1e-6)
		s.Cancel(e)
	}
}

// benchReRate sets up two co-resident kernels on overlapping masks of an
// A100, sized never to finish within a benchmark run.
func benchReRate() (*sim.Simulation, *gpusim.GPU) {
	s := sim.New()
	g := gpusim.New(s, gpusim.A100())
	prefill := g.NewStream(smmask.Range(0, 64))
	decode := g.NewStream(smmask.Range(40, 108))
	g.Launch(prefill, gpusim.Kernel{Name: "gemm", FLOPs: 1e21, Bytes: 1e15, Grid: 216}, nil)
	g.Launch(decode, gpusim.Kernel{Name: "attn", FLOPs: 1e18, Bytes: 1e18, Grid: 64}, nil)
	s.Run(1e-3) // let both launch overheads elapse: both kernels resident
	return s, g
}

// reRate advances the clock by a microsecond and toggles one shared SM
// between healthy and half speed, re-rating both resident kernels. A
// health change also refreshes each kernel's bandwidth-occupancy factor,
// which a kernel start or finish does not pay.
func reRate(s *sim.Simulation, g *gpusim.GPU) {
	s.PostAfter(1e-6, func() {})
	s.Step()
	h := 0.5
	if g.SMHealth(50) < 1 {
		h = 1
	}
	g.SetSMHealth(50, 1, h)
}

// benchGPUReRate measures one steady-state re-rate of the fluid simulator
// (advance + per-kernel SM shares + backend demands + bandwidth
// water-filling + completion reschedules), the work every kernel start
// and finish pays.
func benchGPUReRate(b *testing.B) {
	s, g := benchReRate()
	reRate(s, g) // allocate the health vector and the demand scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reRate(s, g)
	}
}

// benchScheduler returns a scheduler and a small state that violates
// both azure-code targets, so Decide takes the balanced search: a running
// four-request prefill batch, six requests that have waited about 0.9 s,
// and an eight-request decode batch whose P90 TPOT is above 200 ms.
func benchScheduler() (*sched.Scheduler, sched.State) {
	spec := gpusim.A100()
	cfg := model.Llama31_8B()
	est := estimator.New(cfg, spec, estimator.DefaultParams())
	res := resource.NewManager(gpusim.New(sim.New(), spec), 6)
	s := sched.New(est, metrics.SLOFor("azure-code"), sched.Config{
		TotalLayers: cfg.NumLayers, LayerGroup: 4,
		NumSMs: spec.NumSMs, Levels: res.Levels(),
	})
	st := sched.State{
		Now: 1.0,
		Prefill: sched.PrefillStatus{
			Active: true, Tokens: 4352, LayersDone: 16, StartTime: 0.98,
			Arrivals:    []sim.Time{0.97, 0.975, 0.98, 0.98},
			InputTokens: []int{512, 1024, 768, 2048},
		},
		Decode: sched.DecodeStatus{
			Batch: 8, AvgCtx: 900,
			Elapsed:   []units.Seconds{0.4, 0.3, 0.5, 0.2, 0.6, 0.1, 0.35, 0.45},
			Generated: []int{1, 1, 2, 0, 2, 0, 1, 1},
		},
		PrefillSMs: 48, DecodeSMs: 60,
	}
	for i := 0; i < 6; i++ {
		st.Waiting = append(st.Waiting, sched.WaitingReq{
			Arrival:     units.Seconds(0.1 + float64(i)*0.01),
			InputTokens: 512 + 128*i,
		})
	}
	return s, st
}

// arxivBacklog replays the arxiv-backlog bench load (arxiv-summary at 30
// req/s, 100 requests, seed 42) on Bullet one event at a time, until stop
// accepts the system and the metadata snapshot taken after an event. It
// returns the system and a copy of that snapshot.
func arxivBacklog(tb testing.TB, stop func(*core.Bullet, sched.State) bool) (*core.Bullet, sched.State) {
	tb.Helper()
	gpu, cfg := experiments.Platform()
	env := serving.NewEnv(gpu, cfg, workload.ArxivSummary.Name)
	b := core.New(env, core.Options{Mode: core.ModeFull, Params: core.FittedParams(cfg, gpu)})
	for _, r := range workload.Generate(workload.ArxivSummary, 30, 100, 42).Requests {
		r := r
		env.Sim.Post(r.Arrival, func() { b.Submit(r) })
	}
	for env.Sim.Step() {
		if st := b.Buffer.Snapshot(); stop(b, st) {
			st.Prefill.Arrivals = slices.Clone(st.Prefill.Arrivals)
			st.Prefill.InputTokens = slices.Clone(st.Prefill.InputTokens)
			st.Prefill.Weights = slices.Clone(st.Prefill.Weights)
			st.Waiting = slices.Clone(st.Waiting)
			st.Decode.Elapsed = slices.Clone(st.Decode.Elapsed)
			st.Decode.Generated = slices.Clone(st.Decode.Generated)
			return b, st
		}
	}
	tb.Fatal("arxiv-backlog: no snapshot matched")
	return nil, sched.State{}
}

// backlogDecision returns Bullet's scheduler and its first balance-branch
// snapshot with 64 or more waiting requests on the arxiv-backlog load:
// a real deep queue, where the balanced search dominates.
func backlogDecision(tb testing.TB) (*sched.Scheduler, sched.State) {
	sys, st := arxivBacklog(tb, func(sys *core.Bullet, st sched.State) bool {
		return len(st.Waiting) >= 64 && sys.Scheduler.Decide(st).Branch == "balance"
	})
	return sys.Scheduler, st
}

// benchSchedDecide measures one full Algorithm 1 evaluation — the
// water-filling re-rate that runs every scheduling cycle.
func benchSchedDecide(b *testing.B) {
	s, st := benchScheduler()
	benchDecide(b, s, st)
}

// benchSchedDecideBacklog measures Algorithm 1 on a deep queue captured
// from the arxiv-backlog load.
func benchSchedDecideBacklog(b *testing.B) {
	s, st := backlogDecision(b)
	benchDecide(b, s, st)
}

// benchDecide measures s.Decide on st.
func benchDecide(b *testing.B, s *sched.Scheduler, st sched.State) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Decide(st)
	}
}

// benchResourceRebuild measures the SM-partition table rebuild that runs
// on every fault/recovery transition.
func benchResourceRebuild(b *testing.B) {
	g := gpusim.New(sim.New(), gpusim.A100())
	m := resource.NewManager(g, 6)
	full := smmask.Full(g.Spec.NumSMs)
	degraded := full
	for i := 0; i < 12; i++ {
		degraded.Clear(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.Rebuild(degraded)
		} else {
			m.Rebuild(full)
		}
	}
}

// benchResourceStream measures the per-cycle stream lookup + quantize.
func benchResourceStream(b *testing.B) {
	g := gpusim.New(sim.New(), gpusim.A100())
	m := resource.NewManager(g, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Stream(resource.Prefill, 40+i%30)
		_ = m.Stream(resource.Decode, 70-i%30)
	}
}

// benchTimelineSpanEnabled measures one recorded span with typical args
// against a live bounded recorder.
func benchTimelineSpanEnabled(b *testing.B) {
	rec := timeline.New(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48))
	}
}

// benchTimelineSpanDisabled measures the same call site with a nil
// recorder — the cost every hot loop pays when tracing is off, which the
// allocation contract pins at zero.
func benchTimelineSpanDisabled(b *testing.B) {
	var rec *timeline.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48))
	}
}

// benchKVAllocFree measures the block pool's steady-state churn: one
// sequence allocated and freed per iteration.
func benchKVAllocFree(b *testing.B) {
	p := kvcache.NewPool(4096, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p.Allocate("r", 2048, "decode")
		if err != nil {
			b.Fatal(err)
		}
		p.MustFree(s)
	}
}

// benchKVExtend measures the per-token-boundary block append of a live
// decode sequence.
func benchKVExtend(b *testing.B) {
	p := kvcache.NewPool(1<<20, 16)
	s, err := p.Allocate("r", 16, "decode")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Extend(16); err != nil {
			b.StopTimer()
			p.MustFree(s)
			s, err = p.Allocate("r", 16, "decode")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// benchPressure builds the admission controller the pressure paths
// share (no timeline attached, its production default).
func benchPressure() (*pressure.Controller, *kvcache.Pool) {
	spec := gpusim.A100()
	cfg := model.Llama31_8B()
	est := estimator.New(cfg, spec, estimator.DefaultParams())
	pool := kvcache.NewPool(4096, 16)
	return pressure.New(pool, est, cfg.KVBytesPerToken(), pressure.DefaultConfig()), pool
}

// benchPressureAdmit measures the admission gate check and preemption
// deficit that the prefill engine asks before every batch start under
// memory pressure.
func benchPressureAdmit(b *testing.B) {
	ctrl, _ := benchPressure()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctrl.AdmitPrio(units.Seconds(float64(i)*1e-6), "r", 2048, 0, pressure.PrioPremium)
		_ = ctrl.PhysicalDeficit(2048)
	}
}

// benchMetricsPercentile measures the P90 read the scheduler issues at
// least twice per Decide, via the in-place variant it now uses.
func benchMetricsPercentile(b *testing.B) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64((i * 37) % 64)
	}
	scratch := make([]float64, 0, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = append(scratch[:0], xs...)
		_ = metrics.PercentileInPlace(scratch, 0.9)
	}
}

// benchQoS builds a controller in its production default shape: no
// timeline, engine-scale caps, default AIMD constants.
func benchQoS() *qos.Controller {
	return qos.New(metrics.SLOFor("azure-code"), 256, 16384)
}

// benchQoSObserve measures the per-decode-step feedback call — the
// controller's hottest entry point: one observation folded into the
// window accumulator, the boundary check, and (every ~250 simulated ms)
// one AIMD decision, plus the cap reads the engines issue per cycle.
func benchQoSObserve(b *testing.B) {
	c := benchQoS()
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-4
		c.ObserveStep(units.Seconds(now), 64, units.FromMs(25), 0.5)
		_ = c.DecodeCap()
		_ = c.PrefillTokenBudget()
	}
}
