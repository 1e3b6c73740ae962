package core

import (
	"reflect"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// runQoS executes a tenant-mixed trace on the full QoS stack (pressure
// gate + SLO-feedback controller) with a recorder attached and returns
// the result and the system.
func runQoS(trace *workload.Trace, pcfg pressure.Config) (serving.Result, *Bullet) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b := New(env, Options{Mode: ModeFull, Pressure: &pcfg, QoS: true})
	b.AttachTimeline(timeline.New(0))
	return b.RunTrace(trace), b
}

// TestQoSTokenConservation pins the accounting contract on a clean
// moderate-load run (no shed, no preemption): every computed prefill
// token and every generated decode token lands in exactly one class
// bucket, and the buckets sum to the trace totals.
func TestQoSTokenConservation(t *testing.T) {
	trace := workload.GenerateTenantMix(workload.AzureCode, 4, 60, 7, workload.DefaultTenantMix())
	res, b := runQoS(trace, pressure.Config{})
	if res.Shed != 0 {
		t.Fatalf("conservation run shed %d requests; want a clean run", res.Shed)
	}
	if len(res.Requests) != len(trace.Requests) {
		t.Fatalf("completed %d of %d requests", len(res.Requests), len(trace.Requests))
	}
	wantPrefill, wantDecode := 0, 0
	var wantByClass [qos.NumClasses]int
	for _, r := range res.Requests {
		wantPrefill += r.InputTokens
		wantDecode += r.OutputTokens - 1 // first token comes from prefill
		wantByClass[qos.ClassOf(r.Tenant)] += r.InputTokens
	}
	acct := b.QoS().Accounting
	if got := acct.TotalPrefillTokens(); got != wantPrefill {
		t.Errorf("prefill tokens: accounted %d, trace total %d", got, wantPrefill)
	}
	if got := acct.TotalDecodeTokens(); got != wantDecode {
		t.Errorf("decode tokens: accounted %d, trace total %d", got, wantDecode)
	}
	for c := 0; c < qos.NumClasses; c++ {
		if acct.PrefillTokens[c] != wantByClass[c] {
			t.Errorf("class %v prefill tokens = %d, want %d",
				qos.Class(c), acct.PrefillTokens[c], wantByClass[c])
		}
	}
	var completed int
	for c := 0; c < qos.NumClasses; c++ {
		completed += acct.Completed[c]
	}
	if completed != len(res.Requests) {
		t.Errorf("completions accounted %d, want %d", completed, len(res.Requests))
	}
}

// shedTrace is a sustained squeeze on a shrunken pool: interleaved
// same-shape requests from all three classes, far more than the pool can
// hold, so the gate's deferral budgets run out and requests shed.
func shedTrace() *workload.Trace {
	tr := &workload.Trace{Dataset: "azure-code", Rate: 1}
	tenants := []string{
		qos.TenantBestEffort, qos.TenantStandard, qos.TenantPremium,
	}
	for i := 0; i < 18; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID:           "r" + string(rune('a'+i)),
			Tenant:       tenants[i%3],
			Arrival:      units.FromMs(float64(i)),
			InputTokens:  1504,
			OutputTokens: 96,
			Dataset:      "azure-code",
		})
	}
	return tr
}

// TestQoSShedOrder drives the squeeze and checks the class shed order is
// strict in time: the gate halves the deferral budget per priority level,
// so under the same sustained pressure best-effort runs out of budget
// strictly before standard, and standard strictly before premium.
func TestQoSShedOrder(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	env.KV = kvcache.NewPool(160, serving.KVBlockTokens)
	var shedSeq []qos.Class
	env.OnShed = func(r workload.Request) {
		shedSeq = append(shedSeq, qos.ClassOf(r.Tenant))
	}
	pcfg := pressure.Config{DisablePreemption: true, MaxDeferrals: 64}
	b := New(env, Options{Mode: ModeFull, Pressure: &pcfg, QoS: true})
	res := b.RunTrace(shedTrace())
	shed := b.QoS().Accounting.Shed
	if res.Shed == 0 || shed[qos.BestEffort] == 0 || shed[qos.Standard] == 0 {
		t.Fatalf("squeeze did not shed both lower classes (total %d, by class %v)",
			res.Shed, shed)
	}
	first := func(c qos.Class) int {
		for i, s := range shedSeq {
			if s == c {
				return i
			}
		}
		return len(shedSeq)
	}
	if first(qos.BestEffort) >= first(qos.Standard) {
		t.Errorf("standard shed (seq %d) no later than best-effort (seq %d)",
			first(qos.Standard), first(qos.BestEffort))
	}
	if first(qos.Standard) >= first(qos.Premium) {
		t.Errorf("premium shed (seq %d) no later than standard (seq %d)",
			first(qos.Premium), first(qos.Standard))
	}
}

// TestQoSRunDeterminism pins the determinism contract on the full QoS
// stack: two runs from the same seed produce identical per-request
// metrics and an identical controller trajectory. ci.sh re-runs this
// test under -race.
func TestQoSRunDeterminism(t *testing.T) {
	run := func() (serving.Result, qos.Metrics) {
		trace := workload.GenerateTenantMix(workload.AzureCode, 12, 80, 42, workload.DefaultTenantMix())
		res, b := runQoS(trace, pressure.Config{})
		return res, b.QoS()
	}
	r1, m1 := run()
	r2, m2 := run()
	if m1 != m2 {
		t.Fatalf("controller trajectories diverged:\n%+v\n%+v", m1, m2)
	}
	if m1.Decisions == 0 {
		t.Fatal("controller made no decisions; the run is not exercising the loop")
	}
	if !reflect.DeepEqual(r1.Requests, r2.Requests) {
		t.Fatal("per-request metrics diverged between same-seed runs")
	}
	if r1.Summary != r2.Summary || r1.Makespan != r2.Makespan {
		t.Fatalf("summaries diverged:\n%+v\n%+v", r1.Summary, r2.Summary)
	}
}

// TestQoSOffBitIdentical pins the nil-guard contract: a system built
// without QoS produces byte-identical results whether or not the qos
// package is linked — i.e. the plain-bullet path through the engines is
// untouched. (The golden trace tests pin the stronger cross-version
// property; this is the cheap in-package guard.)
func TestQoSOffBitIdentical(t *testing.T) {
	trace := workload.Generate(workload.AzureCode, 4, 40, 9)
	env1 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	res1 := New(env1, Options{Mode: ModeFull}).RunTrace(trace)
	env2 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b2 := New(env2, Options{Mode: ModeFull})
	if b2.QoSController() != nil {
		t.Fatal("QoS controller present without opt-in")
	}
	res2 := b2.RunTrace(trace)
	if !reflect.DeepEqual(res1.Requests, res2.Requests) || res1.Summary != res2.Summary {
		t.Fatal("plain-bullet runs diverged")
	}
	if got := b2.QoS(); got != (qos.Metrics{}) {
		t.Fatalf("QoS metrics non-zero without a controller: %+v", got)
	}
}
