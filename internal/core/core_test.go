package core

import (
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/workload"
)

func runBullet(t testing.TB, mode Mode, dataset workload.Dataset, rate float64, n int, seed int64, opts Options) serving.Result {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), dataset.Name)
	opts.Mode = mode
	if opts.Params == (estimator.Params{}) {
		opts.Params = estimator.DefaultParams() // keep unit tests fast
	}
	b := New(env, opts)
	trace := workload.Generate(dataset, rate, n, seed)
	return b.RunTrace(trace)
}

func TestFullSystemCompletesAllRequests(t *testing.T) {
	res := runBullet(t, ModeFull, workload.ShareGPT, 4, 40, 1, Options{})
	if res.Summary.Requests != 40 {
		t.Fatalf("completed %d/40", res.Summary.Requests)
	}
	if res.Summary.MeanTTFT <= 0 || res.Summary.MeanTPOTMs <= 0 {
		t.Fatalf("degenerate summary: %+v", res.Summary)
	}
	// At modest load Bullet should comfortably meet SLOs.
	if res.Summary.SLOAttainment < 0.6 {
		t.Fatalf("SLO attainment = %v at light load", res.Summary.SLOAttainment)
	}
}

func TestDeterminism(t *testing.T) {
	a := runBullet(t, ModeFull, workload.AzureCode, 2, 25, 7, Options{})
	b := runBullet(t, ModeFull, workload.AzureCode, 2, 25, 7, Options{})
	if a.Summary != b.Summary {
		t.Fatalf("non-deterministic summaries:\n%+v\n%+v", a.Summary, b.Summary)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("non-deterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestAllModesRun(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeNaive, ModePartitionOnly, ModeSchedulerOnly} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			res := runBullet(t, mode, workload.ShareGPT, 3, 20, 3, Options{})
			if res.Summary.Requests != 20 {
				t.Fatalf("%s completed %d/20", mode, res.Summary.Requests)
			}
		})
	}
}

func TestStaticModeRuns(t *testing.T) {
	res := runBullet(t, ModeStatic, workload.AzureCode, 2, 20, 5, Options{FixedPrefillSMs: 84})
	if res.Summary.Requests != 20 {
		t.Fatalf("completed %d/20", res.Summary.Requests)
	}
	if res.System != "bullet-sm84" {
		t.Fatalf("name = %s", res.System)
	}
}

func TestStaticModeRequiresPrefillSMs(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	defer func() {
		if recover() == nil {
			t.Fatal("ModeStatic without FixedPrefillSMs accepted")
		}
	}()
	New(env, Options{Mode: ModeStatic, Params: estimator.DefaultParams()})
}

func TestUnknownModePanics(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mode accepted")
		}
	}()
	New(env, Options{Mode: "nope", Params: estimator.DefaultParams()})
}

// TestTimelineSeriesPopulated: a recorder attached to a loaded run sees
// every decision's SM split, queue depth and decode batch on the sched
// lane and every batch start on the prefill lane — the events Fig. 12 is
// folded from — and the SM split varies under dynamic provisioning.
func TestTimelineSeriesPopulated(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	rec := timeline.New(0)
	b.AttachTimeline(rec)
	b.RunTrace(workload.Generate(workload.AzureCode, 3, 25, 11))
	branches, allocs, batchStarts, observedSteps := 0, 0, 0, 0
	minSM, maxSM := math.MaxInt, math.MinInt
	for _, e := range rec.Events() {
		switch {
		case e.Lane == "sched" && e.Kind == timeline.KindInstant:
			branches++
		case e.Lane == "sched" && e.Name == "alloc":
			allocs++
			sms := intArg(t, e, "prefillSMs")
			minSM, maxSM = min(minSM, sms), max(maxSM, sms)
			intArg(t, e, "decodeSMs")
			intArg(t, e, "waiting")
			intArg(t, e, "decodeBatch")
		case e.Lane == "prefill" && e.Name == "batch-start":
			batchStarts++
			intArg(t, e, "tokens")
			intArg(t, e, "waiting")
		case e.Lane == "estimator" && e.Name == "decode":
			observedSteps++
		}
	}
	if allocs == 0 || batchStarts == 0 || branches == 0 {
		t.Fatalf("timeline not recorded: %d alloc counters, %d batch starts, %d branch instants",
			allocs, batchStarts, branches)
	}
	if branches != allocs || allocs != b.Buffer.Decisions {
		t.Fatalf("%d branch instants, %d alloc counters, %d decisions: want one of each per decision",
			branches, allocs, b.Buffer.Decisions)
	}
	if minSM == maxSM {
		t.Fatalf("prefill SMs never changed (always %d)", minSM)
	}
	if observedSteps == 0 || observedSteps != b.Decode.Steps() {
		t.Fatalf("%d estimator/decode instants for %d decode steps: want one feedback per step",
			observedSteps, b.Decode.Steps())
	}
}

// intArg returns e's integer argument key, failing the test when absent.
func intArg(t *testing.T, e timeline.Event, key string) int {
	t.Helper()
	for _, a := range e.Args {
		if a.Key == key && a.Kind == timeline.ArgInt {
			return int(a.I)
		}
	}
	t.Fatalf("%s/%s at %v has no integer %q arg: %+v", e.Lane, e.Name, e.Start, key, e.Args)
	return 0
}

// floatArg returns e's float argument key, failing the test when absent.
func floatArg(t *testing.T, e timeline.Event, key string) float64 {
	t.Helper()
	for _, a := range e.Args {
		if a.Key == key && a.Kind == timeline.ArgFloat {
			return a.F
		}
	}
	t.Fatalf("%s/%s at %v has no float %q arg: %+v", e.Lane, e.Name, e.Start, key, e.Args)
	return 0
}

// strArg returns e's string argument key, failing the test when absent.
func strArg(t *testing.T, e timeline.Event, key string) string {
	t.Helper()
	for _, a := range e.Args {
		if a.Key == key && a.Kind == timeline.ArgString {
			return a.S
		}
	}
	t.Fatalf("%s/%s at %v has no string %q arg: %+v", e.Lane, e.Name, e.Start, key, e.Args)
	return ""
}

func TestConcurrencyBeatsNothing(t *testing.T) {
	// The full system must beat Naive on TTFT tails under load: Naive
	// lets decode hog bandwidth while prefill queues pile up.
	full := runBullet(t, ModeFull, workload.AzureCode, 4, 40, 13, Options{})
	naive := runBullet(t, ModeNaive, workload.AzureCode, 4, 40, 13, Options{})
	if full.Summary.P90NormTTFT > naive.Summary.P90NormTTFT*1.5 {
		t.Fatalf("full P90 norm TTFT %v much worse than naive %v",
			full.Summary.P90NormTTFT, naive.Summary.P90NormTTFT)
	}
}

func TestOutputTokenConservation(t *testing.T) {
	trace := workload.Generate(workload.ShareGPT, 3, 30, 17)
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), trace.Dataset)
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	res := b.RunTrace(trace)
	want := trace.TotalOutputTokens()
	got := 0
	for _, r := range res.Requests {
		got += r.OutputTokens
	}
	if got != want {
		t.Fatalf("output tokens %d != trace %d", got, want)
	}
}

func TestFittedParamsCached(t *testing.T) {
	a := FittedParams(model.Llama31_8B(), gpusim.A100())
	b := FittedParams(model.Llama31_8B(), gpusim.A100())
	if a != b {
		t.Fatal("FittedParams not cached")
	}
	if a.DC <= 0 || a.DB <= 0 {
		t.Fatalf("bad fitted params: %+v", a)
	}
}

func TestSingleOutputTokenRequestCompletesAtPrefill(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	trace := &workload.Trace{Dataset: "azure-code", Rate: 1, Requests: []workload.Request{
		{ID: "one", Arrival: 0.001, InputTokens: 1024, OutputTokens: 1, Dataset: "azure-code"},
	}}
	res := b.RunTrace(trace)
	r := res.Requests[0]
	if r.FirstToken != r.Finish {
		t.Fatalf("single-token request should finish at first token: %+v", r)
	}
	if b.Decode.Steps() != 0 {
		t.Fatal("decode engine ran for a single-token request")
	}
}

func BenchmarkFullSystemShareGPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBullet(b, ModeFull, workload.ShareGPT, 5, 50, 1, Options{})
	}
}

func TestPrefixCacheEndToEnd(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b := New(env, Options{Mode: ModeFull, EnablePrefixCache: true, Params: estimator.DefaultParams()})
	if b.Name() != "bullet+prefix" {
		t.Fatalf("name = %s", b.Name())
	}
	trace := workload.GenerateShared(workload.AzureCode, 3, 40, 19, 2, 512, 0.9)
	res := b.RunTrace(trace)
	if res.Summary.Requests != 40 {
		t.Fatalf("completed %d/40", res.Summary.Requests)
	}
	st := b.PrefixCache.Stats()
	if st.Hits == 0 || st.HitTokens == 0 {
		t.Fatalf("no prefix hits: %+v", st)
	}
	// The harness already asserts the pool drained (EvictAll via OnDrain).
}

func TestTPModelThroughCore(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B().TP(2), "sharegpt")
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	trace := workload.Generate(workload.ShareGPT, 4, 20, 23)
	res := b.RunTrace(trace)
	if res.Summary.Requests != 20 {
		t.Fatalf("completed %d/20", res.Summary.Requests)
	}
	// TP2 halves per-rank work: latencies should beat TP1 on the same trace.
	env1 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	b1 := New(env1, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	res1 := b1.RunTrace(workload.Generate(workload.ShareGPT, 4, 20, 23))
	if res.Summary.MeanTTFT >= res1.Summary.MeanTTFT {
		t.Fatalf("TP2 TTFT %.3f not below TP1 %.3f", res.Summary.MeanTTFT, res1.Summary.MeanTTFT)
	}
}

func TestModeNames(t *testing.T) {
	for mode, want := range map[Mode]string{
		ModeFull:          "bullet",
		ModeNaive:         "bullet-naive",
		ModePartitionOnly: "bullet-partition",
		ModeSchedulerOnly: "bullet-scheduler",
	} {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
		b := New(env, Options{Mode: mode, Params: estimator.DefaultParams()})
		if b.Name() != want {
			t.Fatalf("mode %s name = %s", mode, b.Name())
		}
	}
}
