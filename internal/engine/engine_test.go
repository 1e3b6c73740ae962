package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// rig wires a full engine pair on a fresh environment.
type rig struct {
	env     *serving.Env
	buf     *Buffer
	res     *resource.Manager
	est     *estimator.Estimator
	schd    *sched.Scheduler
	prefill *PrefillEngine
	decode  *DecodeEngine
}

func newRig(t testing.TB, pcfg PrefillConfig, dcfg DecodeConfig) *rig {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	est := estimator.New(env.Model, env.GPU.Spec, estimator.DefaultParams())
	res := resource.NewManager(env.GPU, 6)
	schd := sched.New(est, env.SLO, sched.Config{
		TotalLayers: env.Model.NumLayers, LayerGroup: pcfg.LayerGroup,
		NumSMs: env.GPU.Spec.NumSMs, Levels: res.Levels(),
	})
	buf := NewBuffer(env.Sim, 0.2e-3)
	p := NewPrefillEngine(env, res, schd, est, buf, pcfg)
	d := NewDecodeEngine(env, res, schd, est, buf, dcfg)
	p.SetDecode(d)
	return &rig{env: env, buf: buf, res: res, est: est, schd: schd, prefill: p, decode: d}
}

func defaultRig(t testing.TB) *rig {
	return newRig(t, DefaultPrefillConfig(108), DefaultDecodeConfig(108))
}

func req(id string, arrival units.Seconds, in, out int) workload.Request {
	return workload.Request{ID: id, Arrival: arrival, InputTokens: in, OutputTokens: out, Dataset: "azure-code"}
}

func TestSingleRequestLifecycle(t *testing.T) {
	r := defaultRig(t)
	r.env.Sim.Post(0.001, func() { r.prefill.Submit(req("a", 0.001, 2048, 10)) })
	r.env.Sim.RunAll(1 << 22)
	done := r.env.Completed()
	if len(done) != 1 {
		t.Fatalf("completed %d", len(done))
	}
	m := done[0]
	m.Validate()
	// Prefill of 2048 tokens: tens of milliseconds; 9 further decode
	// steps of ~8-20 ms each.
	if m.TTFT() < 0.02 || m.TTFT() > 1 {
		t.Fatalf("TTFT = %v", m.TTFT())
	}
	if m.TPOT() <= 0 || m.TPOT() > 0.2 {
		t.Fatalf("TPOT = %v", m.TPOT())
	}
	if r.decode.Steps() != 9 {
		t.Fatalf("decode steps = %d, want 9", r.decode.Steps())
	}
	if r.env.KV.UsedBlocks() != 0 {
		t.Fatal("KV not freed")
	}
}

func TestHandoffLatencyApplied(t *testing.T) {
	r := defaultRig(t)
	r.env.Sim.Post(0.001, func() { r.prefill.Submit(req("a", 0.001, 1024, 5)) })
	r.env.Sim.RunAll(1 << 22)
	if r.buf.Handoffs != 1 {
		t.Fatalf("handoffs = %d", r.buf.Handoffs)
	}
	m := r.env.Completed()[0]
	// The decode engine cannot have started before FirstToken + latency.
	if m.Finish-m.FirstToken < r.buf.Latency {
		t.Fatal("decode finished before metadata latency elapsed")
	}
}

func TestPrefillBatchesQueuedRequests(t *testing.T) {
	r := defaultRig(t)
	rec := timeline.New(0)
	r.prefill.TL = rec
	// Three short requests arriving at the same instant: all should
	// prefill in one batch (deadlines permit).
	r.env.Sim.Post(0.001, func() {
		for _, id := range []string{"a", "b", "c"} {
			r.prefill.Submit(req(id, 0.001, 256, 4))
		}
	})
	r.env.Sim.RunAll(1 << 22)
	if len(r.env.Completed()) != 3 {
		t.Fatalf("completed %d", len(r.env.Completed()))
	}
	var batches []int64
	for _, e := range rec.Events() {
		if e.Lane == "prefill" && e.Name == "batch-start" {
			for _, a := range e.Args {
				if a.Key == "reqs" {
					batches = append(batches, a.I)
				}
			}
		}
	}
	if len(batches) == 0 || batches[0] < 2 {
		t.Fatalf("expected a multi-request first batch, got %v", batches)
	}
}

func TestReorderPrioritizesTightDeadlines(t *testing.T) {
	pcfg := DefaultPrefillConfig(108)
	pcfg.MaxBatchReqs = 1 // force one batch per request to observe order
	pcfg.SLOAdmission = false
	r := newRig(t, pcfg, DefaultDecodeConfig(108))
	// A huge request arrives first, then a tiny one with a much tighter
	// absolute deadline. With reordering, the tiny one should finish
	// prefill first despite arriving later.
	r.env.Sim.Post(0.001, func() {
		r.prefill.Submit(req("big", 0.001, 16000, 2))
		r.prefill.Submit(req("big2", 0.001, 16000, 2))
	})
	r.env.Sim.Post(0.002, func() { r.prefill.Submit(req("tiny", 0.002, 128, 2)) })
	r.env.Sim.RunAll(1 << 23)
	var bigFirstToken, tinyFirstToken units.Seconds
	for _, m := range r.env.Completed() {
		switch m.ID {
		case "big2":
			bigFirstToken = m.FirstToken
		case "tiny":
			tinyFirstToken = m.FirstToken
		}
	}
	if tinyFirstToken > bigFirstToken {
		t.Fatalf("tiny (deadline-first) finished at %v after big2 at %v", tinyFirstToken, bigFirstToken)
	}
}

func TestNoReorderKeepsFCFS(t *testing.T) {
	pcfg := DefaultPrefillConfig(108)
	pcfg.MaxBatchReqs = 1
	pcfg.Reorder = false
	pcfg.SLOAdmission = false
	r := newRig(t, pcfg, DefaultDecodeConfig(108))
	r.env.Sim.Post(0.001, func() {
		r.prefill.Submit(req("big", 0.001, 16000, 2))
		r.prefill.Submit(req("big2", 0.001, 16000, 2))
	})
	r.env.Sim.Post(0.002, func() { r.prefill.Submit(req("tiny", 0.002, 128, 2)) })
	r.env.Sim.RunAll(1 << 23)
	var big2First, tinyFirst units.Seconds
	for _, m := range r.env.Completed() {
		switch m.ID {
		case "big2":
			big2First = m.FirstToken
		case "tiny":
			tinyFirst = m.FirstToken
		}
	}
	if tinyFirst < big2First {
		t.Fatalf("FCFS violated without reordering: tiny %v before big2 %v", tinyFirst, big2First)
	}
}

func TestDecodePauseUnderTTFTPressure(t *testing.T) {
	r := defaultRig(t)
	// A long decode-heavy request first, then a deep burst of small
	// requests whose normalized-TTFT deadlines are tight (1.5 ms/token ×
	// 512 ≈ 0.77 s): rescuing them requires pausing decode.
	r.env.Sim.Post(0.001, func() { r.prefill.Submit(req("warm", 0.001, 1024, 400)) })
	const burst = 30
	for i := 0; i < burst; i++ {
		i := i
		at := sim.Time(0.5 + float64(i)*0.002)
		r.env.Sim.Post(at, func() { r.prefill.Submit(req(fmt.Sprintf("b%d", i), at, 512, 4)) })
	}
	r.env.Sim.RunAll(1 << 24)
	if len(r.env.Completed()) != burst+1 {
		t.Fatalf("completed %d/%d", len(r.env.Completed()), burst+1)
	}
	if r.decode.Pauses() == 0 {
		t.Fatal("expected decode pauses under TTFT pressure")
	}
}

func idOf(i int) string { return string(rune('p'+i)) + "-req" }

func TestKVBackpressureBlocksAdmission(t *testing.T) {
	r := defaultRig(t)
	// Capacity is ~450k tokens; submit requests that exceed it so later
	// ones must wait for earlier completions.
	total := r.env.KV.TotalTokens()
	per := total/3 + 1000
	for i := 0; i < 4; i++ {
		i := i
		at := sim.Time(0.001 + float64(i)*1e-6)
		r.env.Sim.Post(at, func() {
			r.prefill.Submit(workload.Request{
				ID: idOf(i), Arrival: at, InputTokens: per - 64, OutputTokens: 64,
				Dataset: "azure-code",
			})
		})
	}
	r.env.Sim.RunAll(1 << 26)
	if len(r.env.Completed()) != 4 {
		t.Fatalf("completed %d/4", len(r.env.Completed()))
	}
	if r.env.KV.UsedBlocks() != 0 {
		t.Fatal("KV not drained")
	}
	if r.env.KV.PeakUsedBlocks() > r.env.KV.TotalBlocks() {
		t.Fatal("peak exceeded capacity")
	}
}

func TestBufferWakersAreOneShot(t *testing.T) {
	s := sim.New()
	buf := NewBuffer(s, 0)
	fired := 0
	buf.OnPrefillProgress(func() { fired++ })
	buf.PublishPrefillProgress()
	buf.PublishPrefillProgress() // second publish: no subscribers left
	s.RunAll(100)
	if fired != 1 {
		t.Fatalf("waker fired %d times", fired)
	}
	buf.OnKVRelease(func() { fired++ })
	buf.PublishKVRelease()
	buf.PublishKVRelease()
	s.RunAll(100)
	if fired != 2 {
		t.Fatalf("kv waker fired %d times total", fired)
	}
}

func TestBufferSnapshotCountsDecisions(t *testing.T) {
	s := sim.New()
	buf := NewBuffer(s, 0)
	buf.Snapshot()
	buf.Snapshot()
	if buf.Decisions != 2 {
		t.Fatalf("decisions = %d", buf.Decisions)
	}
}

// TestSortWaiting orders the queue by SLO deadline, earliest first, keeps
// queue order among equal deadlines, and with QoS stretches each
// request's deadline by its class's SLO scale.
func TestSortWaiting(t *testing.T) {
	tenant := func(w workload.Request, tag string) workload.Request {
		w.Tenant = tag
		return w
	}
	// azure-code targets 1.5 ms per prompt token.
	cases := []struct {
		name string
		qos  bool
		in   []workload.Request
		want string
	}{
		{"deadline", false, []workload.Request{
			req("big", 0, 10000, 1),   // deadline 15
			req("tiny", 1, 100, 1),    // 1.15
			req("mid", 0.5, 2000, 1)}, // 3.5
			"tiny mid big"},
		{"stable", false, []workload.Request{
			req("e", 1, 1000, 1),    // 2.5
			req("c", 1.125, 250, 1), // 1.5
			req("a", 0, 1000, 1),    // 1.5
			req("d", 0, 100, 1),     // 0.15
			req("b", 0.75, 500, 1)}, // 1.5
			"d c a b e"},
		{"unweighted", false, []workload.Request{
			tenant(req("be", 0, 100, 1), qos.TenantBestEffort),   // 0.15
			tenant(req("std", 0, 240, 1), qos.TenantStandard),    // 0.36
			tenant(req("prem", 0.2, 200, 1), qos.TenantPremium)}, // 0.5
			"be std prem"},
		{"weighted", true, []workload.Request{
			tenant(req("be", 0, 100, 1), qos.TenantBestEffort),   // 0.15 × 4
			tenant(req("std", 0, 240, 1), qos.TenantStandard),    // 0.36 × 2
			tenant(req("prem", 0.2, 200, 1), qos.TenantPremium)}, // 0.5
			"prem be std"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := defaultRig(t)
			if c.qos {
				r.prefill.QoS = qos.New(r.env.SLO, 256, 16384)
			}
			for _, w := range c.in {
				r.prefill.waiting = append(r.prefill.waiting, &Req{W: w, Class: qos.ClassOf(w.Tenant)})
			}
			r.prefill.sortWaiting()
			var got []string
			for _, q := range r.prefill.waiting {
				got = append(got, q.W.ID)
			}
			if strings.Join(got, " ") != c.want {
				t.Fatalf("order %v, want %s", got, c.want)
			}
		})
	}
}

// TestSortWaitingZeroAlloc pins the deadline reorder at zero: the
// insertion sort moves pointers in place and builds no comparator.
func TestSortWaitingZeroAlloc(t *testing.T) {
	r := defaultRig(t)
	r.prefill.QoS = qos.New(r.env.SLO, 256, 16384)
	in := make([]*Req, 64)
	for i := range in { // latest deadline first, classes interleaved
		in[i] = &Req{W: req(fmt.Sprint(i), units.Seconds(64-i), 512, 1), Class: qos.Class(i % qos.NumClasses)}
	}
	r.prefill.waiting = make([]*Req, len(in))
	if got := testing.AllocsPerRun(100, func() {
		copy(r.prefill.waiting, in)
		r.prefill.sortWaiting()
	}); got != 0 {
		t.Fatalf("sortWaiting: %v allocs/op, want 0", got)
	}
}

func TestReqRecordAndCtx(t *testing.T) {
	r := &Req{W: workload.Request{ID: "x", Arrival: 1, InputTokens: 100, OutputTokens: 5, Dataset: "d"}}
	r.PrefillStart, r.FirstToken, r.Finish = 1.1, 1.5, 2.0
	r.Generated = 3
	if r.Ctx() != 103 {
		t.Fatalf("ctx = %d", r.Ctx())
	}
	rec := r.Record()
	rec.Validate()
	if rec.TTFT() != 0.5 {
		t.Fatalf("record TTFT = %v", rec.TTFT())
	}
	_ = metrics.Request(rec)
}

func TestFixedSMEnginesNeverReconfigure(t *testing.T) {
	pcfg := DefaultPrefillConfig(108)
	pcfg.DynamicSM = false
	pcfg.FixedSMs = 84
	dcfg := DefaultDecodeConfig(108)
	dcfg.DynamicSM = false
	dcfg.FixedSMs = 108
	dcfg.AllowPause = false
	r := newRig(t, pcfg, dcfg)
	for i := 0; i < 5; i++ {
		i := i
		at := sim.Time(0.001 + 0.2*float64(i))
		r.env.Sim.Post(at, func() { r.prefill.Submit(req(idOf(i), at, 2048, 20)) })
	}
	r.env.Sim.RunAll(1 << 24)
	if len(r.env.Completed()) != 5 {
		t.Fatalf("completed %d/5", len(r.env.Completed()))
	}
	// Static quotas: at most the two initial switches.
	if r.res.Reconfigurations() > 2 {
		t.Fatalf("reconfigs = %d under fixed SMs", r.res.Reconfigurations())
	}
	if r.decode.Pauses() != 0 {
		t.Fatal("paused with AllowPause=false")
	}
}
