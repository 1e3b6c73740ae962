package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// runFaulty drives one serving run with a generated fault schedule —
// with the timeline recorder attached, so determinism tests can diff
// traces too — and returns the result plus the run's resilience
// accounting and exported trace.
func runFaulty(t testing.TB, mode Mode, fcfg faults.Config, rate float64, n int, seed int64) (serving.Result, metrics.Resilience, *faults.Injector, []byte) {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), workload.ShareGPT.Name)
	opts := Options{Mode: mode, Params: estimator.DefaultParams()}
	if mode == ModeStatic {
		opts.FixedPrefillSMs = 54
	}
	b := New(env, opts)
	rec := timeline.New(0)
	b.AttachTimeline(rec)
	inj := faults.NewInjector(env.Sim, faults.Generate(fcfg))
	b.AttachFaults(inj, DefaultWatchdog())
	inj.Arm()
	trace := workload.Generate(workload.ShareGPT, rate, n, seed)
	res := b.RunTrace(trace)
	rl := b.Resilience()
	rl.FaultsInjected = inj.Injected()
	rl.Downtime = inj.ScheduledDowntime()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("exporting faulty-run trace: %v", err)
	}
	return res, rl, inj, buf.Bytes()
}

func faultyConfig() faults.Config {
	cfg := faults.DefaultConfig(108, units.Seconds(30))
	cfg.Seed = 11
	cfg.DegradeRate = 0.3
	cfg.StallRate = 0.3
	return cfg
}

// TestFaultyRunCompletesAndBalances is the tentpole acceptance check for
// a single device: a run with a non-empty fault schedule finishes with
// every request completed or accounted as shed, the KV pool empty (Run
// panics otherwise), and faults actually having fired.
func TestFaultyRunCompletesAndBalances(t *testing.T) {
	const n = 40
	res, rl, inj, _ := runFaulty(t, ModeFull, faultyConfig(), 4, n, 1)
	if inj.Injected() == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	if got := res.Summary.Requests + res.Shed; got != n {
		t.Fatalf("completed %d + shed %d = %d, want %d",
			res.Summary.Requests, res.Shed, got, n)
	}
	if rl.FaultsInjected != inj.Injected() {
		t.Fatalf("resilience counts %d faults, injector %d", rl.FaultsInjected, inj.Injected())
	}
	if res.Summary.Goodput <= 0 {
		t.Fatalf("goodput = %v under moderate faults", res.Summary.Goodput)
	}
}

// TestFaultyRunBitIdentical: same seed + same fault schedule must give
// bit-identical results — the resilience accounting and the exported
// timeline trace included. This composes the fault injector with the
// observability layer's determinism guarantee.
func TestFaultyRunBitIdentical(t *testing.T) {
	a, ra, _, ta := runFaulty(t, ModeFull, faultyConfig(), 4, 30, 9)
	b, rb, _, tb := runFaulty(t, ModeFull, faultyConfig(), 4, 30, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a.Summary, b.Summary)
	}
	if ra != rb {
		t.Fatalf("resilience diverged: %+v vs %+v", ra, rb)
	}
	if !bytes.Equal(ta, tb) {
		t.Fatalf("trace JSON diverged under faults (%d vs %d bytes)", len(ta), len(tb))
	}
}

func TestSMDegradeReprovisions(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), workload.ShareGPT.Name)
	b := New(env, Options{Params: estimator.DefaultParams()})
	b.EnableResilience(DefaultWatchdog())
	// Kill a 24-SM range mid-run, transiently.
	env.Sim.Post(units.Seconds(1), func() {
		b.ApplyFault(faults.Event{
			Kind: faults.KindSMDegrade, FirstSM: 84, NumSMs: 24,
			Throttle: 0, Duration: units.Seconds(2),
		})
	})
	probes := 0
	env.Sim.Post(units.Seconds(2), func() {
		probes++
		if b.Resources.Avail() != 84 || b.Scheduler.Capacity() != 84 {
			t.Errorf("during fault: avail=%d capacity=%d, want 84",
				b.Resources.Avail(), b.Scheduler.Capacity())
		}
	})
	env.Sim.Post(units.Seconds(4), func() {
		probes++
		if b.Resources.Avail() != 108 || b.Scheduler.Capacity() != 108 {
			t.Errorf("after recovery: avail=%d capacity=%d, want 108",
				b.Resources.Avail(), b.Scheduler.Capacity())
		}
	})
	res := b.RunTrace(workload.Generate(workload.ShareGPT, 4, 30, 5))
	if probes != 2 {
		t.Fatalf("probes fired %d/2", probes)
	}
	if res.Summary.Requests != 30 {
		t.Fatalf("completed %d/30 across a transient SM failure", res.Summary.Requests)
	}
	if b.Resources.Rebuilds() != 2 {
		t.Fatalf("rebuilds = %d, want 2 (fault + recovery)", b.Resources.Rebuilds())
	}
	if got := b.Resilience().Recoveries; got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// runHungPrefill arms the watchdog, injects a 2 s prefill hang 1 ms
// after the first arrival — while the first batch runs — and serves the
// trace with a recorder attached.
func runHungPrefill() (serving.Result, *Bullet) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), workload.ShareGPT.Name)
	b := New(env, Options{Params: estimator.DefaultParams()})
	b.AttachTimeline(timeline.New(0))
	b.EnableResilience(DefaultWatchdog())
	trace := workload.Generate(workload.ShareGPT, 4, 20, 2)
	env.Sim.Post(trace.Requests[0].Arrival+units.FromMs(1), func() {
		b.ApplyFault(faults.Event{
			Kind: faults.KindEngineStall, Target: faults.TargetPrefill,
			Stall: units.Seconds(2),
		})
	})
	return b.RunTrace(trace), b
}

// TestWatchdogAbortsHungPrefill pins the abort→retry path: a prefill
// hang far past the watchdog timeout aborts the in-flight batch, frees
// its KV, and the re-enqueued requests still complete.
func TestWatchdogAbortsHungPrefill(t *testing.T) {
	res, b := runHungPrefill()
	rl := b.Resilience()
	if rl.BatchAborts == 0 {
		t.Fatal("watchdog never aborted the hung batch")
	}
	if rl.Retried == 0 {
		t.Fatal("no requests were retried after the abort")
	}
	if res.Summary.Requests+res.Shed != 20 {
		t.Fatalf("completed %d + shed %d, want 20", res.Summary.Requests, res.Shed)
	}
	if b.Prefill.Aborts() != rl.BatchAborts {
		t.Fatalf("engine aborts %d != resilience aborts %d", b.Prefill.Aborts(), rl.BatchAborts)
	}
}

// TestShortStallNoAbort: hangs within the watchdog timeout are waited
// out, not aborted.
func TestShortStallNoAbort(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), workload.ShareGPT.Name)
	b := New(env, Options{Params: estimator.DefaultParams()})
	b.EnableResilience(DefaultWatchdog())
	for _, tgt := range []faults.Target{faults.TargetPrefill, faults.TargetDecode, faults.TargetBuffer} {
		tgt := tgt
		env.Sim.Post(units.FromMs(50), func() {
			b.ApplyFault(faults.Event{
				Kind: faults.KindEngineStall, Target: tgt, Stall: units.FromMs(30),
			})
		})
	}
	res := b.RunTrace(workload.Generate(workload.ShareGPT, 4, 20, 3))
	rl := b.Resilience()
	if rl.BatchAborts != 0 || rl.Shed != 0 {
		t.Fatalf("short stalls caused aborts/shedding: %+v", rl)
	}
	if rl.Recoveries != 3 {
		t.Fatalf("recoveries = %d, want 3", rl.Recoveries)
	}
	if res.Summary.Requests != 20 {
		t.Fatalf("completed %d/20", res.Summary.Requests)
	}
	if b.Buffer.ExtraLatency() != 0 {
		t.Fatalf("buffer extra latency %v not restored", b.Buffer.ExtraLatency())
	}
}

// TestRepeatedHangsShed: with retries exhausted, requests are shed and
// the run still terminates cleanly (KV accounted).
func TestRepeatedHangsShed(t *testing.T) {
	res, b := runRepeatedHangs()
	rl := b.Resilience()
	if rl.Shed == 0 || res.Shed != rl.Shed {
		t.Fatalf("expected shedding under relentless hangs: resilience %+v, result shed %d", rl, res.Shed)
	}
	if res.Summary.Requests+res.Shed != 10 {
		t.Fatalf("completed %d + shed %d, want 10", res.Summary.Requests, res.Shed)
	}
}

// runRepeatedHangs serves a short trace with a recorder attached while
// the prefill engine hangs past a 50 ms watchdog every 60 ms.
func runRepeatedHangs() (serving.Result, *Bullet) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), workload.ShareGPT.Name)
	b := New(env, Options{Params: estimator.DefaultParams()})
	b.AttachTimeline(timeline.New(0))
	b.AttachFaults(nil2(), WatchdogConfig{Timeout: units.FromMs(50), MaxRetries: 0, Backoff: units.FromMs(1)})
	// Hang the prefill engine over and over so every batch launch is
	// aborted; with MaxRetries 0 the second abort sheds a request.
	var hang func(at sim.Time)
	hang = func(at sim.Time) {
		if at > units.Seconds(300) {
			return
		}
		env.Sim.Post(at, func() {
			if b.Prefill.Running() {
				b.ApplyFault(faults.Event{
					Kind: faults.KindEngineStall, Target: faults.TargetPrefill,
					Stall: units.Seconds(1),
				})
			}
			hang(at + units.FromMs(60))
		})
	}
	hang(units.FromMs(1))
	return b.RunTrace(workload.Generate(workload.ShareGPT, 4, 10, 4)), b
}

// nil2 builds an injector-shaped argument for AttachFaults when the test
// drives ApplyFault directly.
func nil2() *faults.Injector {
	return faults.NewInjector(sim.New(), faults.Schedule{})
}

func TestApplyFaultWithoutEnablePanics(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), workload.ShareGPT.Name)
	b := New(env, Options{Params: estimator.DefaultParams()})
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyFault without EnableResilience did not panic")
		}
	}()
	b.ApplyFault(faults.Event{Kind: faults.KindSMDegrade, NumSMs: 2, Throttle: 0.5})
}

func TestStaticModeSurvivesFaults(t *testing.T) {
	res, _, inj, _ := runFaulty(t, ModeStatic, faultyConfig(), 4, 30, 6)
	if inj.Injected() == 0 {
		t.Fatal("no faults fired")
	}
	if res.Summary.Requests+res.Shed != 30 {
		t.Fatalf("static split: completed %d + shed %d, want 30", res.Summary.Requests, res.Shed)
	}
}
