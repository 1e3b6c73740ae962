// Steady-state allocation assertions for the //bullet:hotpath contract
// (DESIGN.md §13). BenchmarkHotPaths measures these paths; this file
// *pins* them, so an allocation regression fails `go test` (and the ci.sh
// alloc gate) rather than silently drifting a BENCH_hotpath.json number.
//
// Each assertion warms the path first so pools and scratch buffers reach
// steady state; AllocsPerRun then reports the per-operation average.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/forkjoin"
	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
)

// pinAllocs asserts an exact steady-state allocation count.
func pinAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	fn() // warm: pools, scratch buffers, lazy growth
	if got := testing.AllocsPerRun(100, fn); got != want {
		t.Errorf("%s: %v allocs/op, want %v", name, got, want)
	}
}

// TestSimEventQueueZeroAlloc pins the event-loop steady state at zero:
// a pooled Post/PostAfter plus the Step that fires it must reuse arena
// storage, never touch the heap.
func TestSimEventQueueZeroAlloc(t *testing.T) {
	s := sim.New()
	fn := func() {}
	for i := 0; i < 256; i++ { // grow the arena and the heap slice once
		s.PostAfter(1e-6, fn)
	}
	for s.Step() {
	}
	pinAllocs(t, "sim post+step", 0, func() {
		s.PostAfter(1e-6, fn)
		s.Step()
	})
}

// TestSimHandleEventOneAlloc pins the caller-owned event path at exactly
// one allocation: the *Event NewEvent makes for the caller to keep.
// Scheduling it, cancelling it and stepping add none.
func TestSimHandleEventOneAlloc(t *testing.T) {
	s := sim.New()
	fn := func() {}
	pinAllocs(t, "sim new+schedule+cancel", 1, func() {
		e := sim.NewEvent(fn)
		s.Schedule(e, s.Now()+1e-6)
		s.Cancel(e)
		s.Step()
	})
}

// TestSimRearmZeroAlloc pins the kept-event cycle at zero: scheduling a
// fired event again and firing it reuses the event, so a callback
// scheduled over and over (the cluster's pump, a pooled launch's
// completion) allocates its event once.
func TestSimRearmZeroAlloc(t *testing.T) {
	s := sim.New()
	e := sim.NewEvent(func() {})
	s.Schedule(e, 1e-6)
	s.Step()
	pinAllocs(t, "sim rearm+step", 0, func() {
		s.Schedule(e, s.Now()+1e-6)
		s.Step()
	})
}

// TestSimScheduleZeroAlloc pins the caller-owned event cycle at zero:
// scheduling a kept event, moving it and firing it, and scheduling it and
// cancelling it, all reuse the one event NewEvent made.
func TestSimScheduleZeroAlloc(t *testing.T) {
	s := sim.New()
	e := sim.NewEvent(func() {})
	pinAllocs(t, "sim schedule+move+step", 0, func() {
		s.Schedule(e, s.Now()+2e-6)
		s.Schedule(e, s.Now()+1e-6)
		s.Step()
	})
	pinAllocs(t, "sim schedule+cancel", 0, func() {
		s.Schedule(e, s.Now()+1e-6)
		s.Cancel(e)
	})
}

// TestForkJoinInlineZeroAlloc pins the regions that run on the calling
// goroutine, one task or one worker, at zero: no panic record on the
// heap and no goroutine, which is what a cluster window with a single
// due replica costs.
func TestForkJoinInlineZeroAlloc(t *testing.T) {
	sum := 0
	task := func(i int) { sum += i }
	pinAllocs(t, "forkjoin one task", 0, func() { forkjoin.Do(1, 0, task) })
	pinAllocs(t, "forkjoin one worker", 0, func() { forkjoin.Do(3, 1, task) })
}

// TestTimelineDisabledCallSiteZeroAlloc pins the cost of a fully
// decorated recording call site when tracing is off — the price every
// production hot loop pays — at zero: the variadic arg slice must stay
// on the caller's stack.
func TestTimelineDisabledCallSiteZeroAlloc(t *testing.T) {
	var rec *timeline.Recorder
	pinAllocs(t, "timeline disabled span", 0, func() {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48), timeline.S("req", "r1"))
	})
	pinAllocs(t, "timeline disabled instant", 0, func() {
		rec.Instant("sched", "re-rate", 0.001,
			timeline.I("prefill_sms", 48), timeline.I("decode_sms", 60))
	})
	pinAllocs(t, "timeline disabled counter", 0, func() {
		rec.Counter("kv", "occupancy", 0.001, timeline.F("frac", 0.7))
	})
	pinAllocs(t, "timeline disabled async", 0, func() {
		rec.AsyncSpan("req", "decode", "id1", 0.001, 0.002, timeline.I("tokens", 1))
	})
}

// TestTimelineEnabledSteadyState bounds the live-recorder append: args
// are copied into the shared arena, so past occasional amortized buffer
// growth a recorded span performs no per-event allocation.
func TestTimelineEnabledSteadyState(t *testing.T) {
	rec := timeline.New(1 << 20)
	record := func() {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48))
	}
	for i := 0; i < 4096; i++ { // push the event and arg buffers past small-cap growth
		record()
	}
	if got := testing.AllocsPerRun(100, record); got >= 1 {
		t.Errorf("timeline enabled span: %v allocs/op, want amortized < 1", got)
	}
}

// TestGPUReRateZeroAlloc pins the fluid simulator's re-rate at zero: two
// co-resident kernels on overlapping masks are re-rated on every SM-health
// toggle — an advance, the per-kernel SM shares, the backend demands, the
// bandwidth water-filling and an in-place move of both completion events.
func TestGPUReRateZeroAlloc(t *testing.T) {
	s, g := benchReRate()
	pinAllocs(t, "gpusim re-rate", 0, func() { reRate(s, g) })
}

// TestGPULaunchSteadyStateZeroAlloc pins a kernel launch on a warm GPU,
// run to completion, at zero: the launch struct and its completion event
// come back from the GPU's free list, the launch gap rides a pooled event
// and the stream queue reuses its storage.
func TestGPULaunchSteadyStateZeroAlloc(t *testing.T) {
	s := sim.New()
	g := gpusim.New(s, gpusim.A100())
	st := g.NewStream(g.FullMask())
	k := gpusim.Kernel{Name: "gemm", Tag: "p", FLOPs: 1e12, Bytes: 1e9, Grid: 216}
	pinAllocs(t, "gpusim launch+run", 0, func() {
		g.Launch(st, k, nil)
		s.RunAll(16)
	})
}

// TestSchedDecideZeroAlloc pins the full water-filling re-rate —
// percentile predictions, balanced level search, decision — at zero
// steady-state allocations, on a small state and on a deep arxiv-backlog
// queue.
func TestSchedDecideZeroAlloc(t *testing.T) {
	s, st := benchScheduler()
	if d := s.Decide(st); d.Branch != "balance" {
		t.Fatalf("small state decides %q, want the balanced search", d.Branch)
	}
	pinAllocs(t, "sched decide", 0, func() { _ = s.Decide(st) })
	s, st = backlogDecision(t)
	pinAllocs(t, "sched decide backlog", 0, func() { _ = s.Decide(st) })
}

// TestEngineSnapshotZeroAlloc pins the metadata snapshot on warm
// engines at zero, with a running prefill batch, a waiting queue and a
// decode batch: each engine fills its own snapshot scratch in place.
func TestEngineSnapshotZeroAlloc(t *testing.T) {
	b, _ := arxivBacklog(t, func(_ *core.Bullet, st sched.State) bool {
		return st.Prefill.Active && len(st.Waiting) >= 32 && st.Decode.Batch > 0
	})
	pinAllocs(t, "engine snapshot", 0, func() { _ = b.Buffer.Snapshot() })
}

// TestEstimatorPredictorsZeroAlloc pins Algorithm 1's predictors at
// zero: a prefill memo hit, a miss on a new key every call, a burst of
// misses that clears the preallocated table on every call, and a decode
// step whose state changes every call.
func TestEstimatorPredictorsZeroAlloc(t *testing.T) {
	est := estimator.New(model.Llama31_8B(), gpusim.A100(), estimator.DefaultParams())
	pinAllocs(t, "estimator prefill hit", 0, func() { _ = est.PrefillTotalTime(2048, 84, true) })
	tokens := 0
	pinAllocs(t, "estimator prefill miss", 0, func() {
		tokens++
		_ = est.PrefillTotalTime(tokens, 84, true)
	})
	pinAllocs(t, "estimator prefill clear", 0, func() {
		for i := 0; i < 4096; i++ { // more new keys than the table has slots
			tokens++
			_ = est.PrefillTotalTime(tokens, 84, true)
		}
	})
	batch := 0
	pinAllocs(t, "estimator decode step", 0, func() {
		batch = batch%64 + 1
		_ = est.DecodeStepTime(batch, 1024, 24, true)
	})
}

// TestLayerKernelsZeroAlloc pins the layer builder at zero allocations
// into warm scratch for the three shapes the engines rebuild every step:
// a prefill batch, a chunked hybrid batch and a decode layer.
func TestLayerKernelsZeroAlloc(t *testing.T) {
	cfg := model.Llama31_8B()
	seqLens, histLens := []int{512, 64, 1000}, []int{0, 128, 7}
	var ks []gpusim.Kernel
	pinAllocs(t, "prefill batch layer", 0, func() {
		ks = cfg.AppendLayerKernels(ks[:0], seqLens, histLens, 0, 0, "p")
	})
	pinAllocs(t, "hybrid layer", 0, func() {
		ks = cfg.AppendLayerKernels(ks[:0], seqLens, histLens, 32, 1500.5, "h")
	})
	pinAllocs(t, "decode layer", 0, func() {
		ks = cfg.AppendLayerKernels(ks[:0], nil, nil, 256, 1500.5, "d")
	})
}

// TestLayerKernelsNilDstOneAlloc pins a layer built with no destination
// slice at exactly one allocation: the list is sized before it is
// written, allreduces included.
func TestLayerKernelsNilDstOneAlloc(t *testing.T) {
	seqLens, histLens := []int{512, 64, 1000}, []int{0, 128, 7}
	for _, cfg := range []model.Config{model.Llama31_8B(), model.Llama31_8B().TP(2)} {
		pinAllocs(t, cfg.Name+" hybrid layer into nil", 1, func() {
			_ = cfg.AppendLayerKernels(nil, seqLens, histLens, 32, 1500.5, "h")
		})
	}
}

// TestKVAllocFreeSteadyState pins sequence churn at exactly one
// allocation per request — the Sequence header handed to the caller —
// with block tables recycled through the pool.
func TestKVAllocFreeSteadyState(t *testing.T) {
	p := kvcache.NewPool(4096, 16)
	pinAllocs(t, "kvcache alloc+free", 1, func() {
		s, err := p.Allocate("r", 2048, "decode")
		if err != nil {
			t.Fatal(err)
		}
		p.MustFree(s)
	})
}

// TestSampledLookupZeroAlloc pins the sampled backend's per-launch
// latency lookup — token-support binary search plus two inverse-CDF
// interpolations — at zero: it runs once per kernel launch on the
// simulator's event path (the manual search exists because a sort.Search
// closure would allocate).
func TestSampledLookupZeroAlloc(t *testing.T) {
	table := &gpusim.LatencyTable{
		RefSMs: 108,
		Ops: map[string][]gpusim.OpSupport{
			"gemm": {
				{Tokens: 64, Q: []units.Seconds{1e-4, 2e-4, 3e-4}},
				{Tokens: 256, Q: []units.Seconds{2e-4, 4e-4, 6e-4}},
				{Tokens: 1024, Q: []units.Seconds{8e-4, 1.6e-3, 2.4e-3}},
			},
		},
	}
	tokens, u := 60, 0.0
	pinAllocs(t, "sampled latency lookup", 0, func() {
		tokens = (tokens + 97) % 1500
		u += 0.013
		if u > 1 {
			u -= 1
		}
		if _, ok := table.Sample("gemm", tokens, u); !ok {
			t.Fatal("gemm missing from table")
		}
	})
}

// TestMetricsPercentileInPlaceZeroAlloc pins the scheduler's percentile
// read (reused scratch + in-place select) at zero.
func TestMetricsPercentileInPlaceZeroAlloc(t *testing.T) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64((i * 37) % 64)
	}
	scratch := make([]float64, 0, len(xs))
	pinAllocs(t, "metrics percentile", 0, func() {
		scratch = append(scratch[:0], xs...)
		_ = metrics.PercentileInPlace(scratch, 0.9)
	})
}

// TestPressureAdmitZeroAlloc pins the admission gate (without a
// timeline attached, its production default) at zero: the gate check
// and preemption deficit the prefill engine asks before each start.
func TestPressureAdmitZeroAlloc(t *testing.T) {
	ctrl, _ := benchPressure()
	now := 0.0
	pinAllocs(t, "pressure admit+deficit", 0, func() {
		now += 1e-6
		_ = ctrl.AdmitPrio(units.Seconds(now), "r", 2048, 0, pressure.PrioPremium)
		_ = ctrl.PhysicalDeficit(2048)
	})
}

// TestQoSControllerZeroAlloc pins the whole SLO-feedback loop (without a
// timeline attached, its production default) at zero: the per-step
// observation, the window-boundary AIMD decision, the per-completion
// observation, and the cap/weight reads the engines issue every cycle.
func TestQoSControllerZeroAlloc(t *testing.T) {
	c := benchQoS()
	now := 0.0
	done := metrics.Request{
		ID: "r", Tenant: "premium", InputTokens: 1024, OutputTokens: 64,
		Arrival: 0, PrefillStart: 0, FirstToken: 0.02, Finish: 0.5,
	}
	pinAllocs(t, "qos observe+decide", 0, func() {
		now += 0.05 // five observations per 250ms window: decisions fire too
		c.ObserveStep(units.Seconds(now), 64, units.FromMs(25), 0.5)
		c.ObserveCompletion(units.Seconds(now), done, 0.5)
		c.AddPrefill(qos.Premium, 512)
		c.AddDecode(qos.Premium)
		_ = c.DecodeCap()
		_ = c.PrefillTokenBudget()
		_ = c.WeightOf(qos.Standard)
	})
}

// TestResilienceHotPathZeroAlloc pins the router's per-dispatch fast
// path (DESIGN.md §16) at zero: the bucket admission check, the pure
// breaker readiness read, the mutating breaker gate, and the hedge
// budget check all run once per dispatch under storm load.
func TestResilienceHotPathZeroAlloc(t *testing.T) {
	cfg := resilience.DefaultConfig()
	// A bucket that never rejects: exercise the admit path.
	bucket := resilience.NewBucket(resilience.BucketConfig{Rate: 1e9, Burst: 1e9})
	breaker := resilience.NewBreaker(cfg.Breaker)
	hedger := resilience.NewHedger(cfg.Hedge)
	now := units.Seconds(0)
	pinAllocs(t, "resilience bucket+breaker+hedge", 0, func() {
		now += 1e-4
		_ = bucket.Allow(now, 512)
		_ = breaker.Ready(now)
		if breaker.Allow(now) {
			breaker.ReportSuccess()
		}
		hedger.NoteDispatch()
		_ = hedger.CanHedge()
	})
}
