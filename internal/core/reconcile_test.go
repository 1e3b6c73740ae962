package core

import (
	"testing"

	"repro/internal/faults"
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

// counterPair is one counter a run reports next to the number of its
// timeline instants (or the sum of their args) that account for it.
type counterPair struct {
	name              string
	counter, timeline int
}

// counterPairs tallies a run's pressure, resilience, QoS and scheduling
// instants and pairs each tally with the counter b reports for it.
func counterPairs(t *testing.T, b *Bullet, events []timeline.Event) []counterPair {
	t.Helper()
	var deferred, shed, preempts, recomputes, retransfers, shrinks int
	var aborts, retried, abortShed, qosDecides, increases, decreases, decisions int
	for _, e := range events {
		if e.Kind != timeline.KindInstant {
			continue
		}
		switch e.Lane + "/" + e.Name {
		case "pressure/admission":
			switch strArg(t, e, "tier") {
			case pressure.TierDefer.String():
				deferred++
			case pressure.TierShed.String():
				shed++
			}
		case "pressure/shed":
			shed++
		case "pressure/preempt":
			preempts++
		case "pressure/recover":
			switch strArg(t, e, "path") {
			case pressure.Recompute.String():
				recomputes++
			case pressure.Retransfer.String():
				retransfers++
			}
		case "pressure/kv-shrink":
			shrinks++
		case "watchdog/abort":
			aborts++
			retried += intArg(t, e, "retried")
			abortShed += intArg(t, e, "shed")
		case "qos/decide":
			qosDecides++
			switch intArg(t, e, "dir") {
			case 1:
				increases++
			case -1:
				decreases++
			}
		}
		if e.Lane == "sched" {
			decisions++
		}
	}
	p, rl, q := b.Pressure(), b.Resilience(), b.QoS()
	return []counterPair{
		{"Pressure.AdmissionsDeferred", p.AdmissionsDeferred, deferred},
		{"Pressure.Shed", p.Shed, shed},
		{"Pressure.Preemptions", p.Preemptions, preempts},
		{"Pressure.Recomputes", p.Recomputes, recomputes},
		{"Pressure.Retransfers", p.Retransfers, retransfers},
		{"Pressure.KVShrinks", p.KVShrinks, shrinks},
		{"Resilience.BatchAborts", rl.BatchAborts, aborts},
		{"Resilience.Retried", rl.Retried, retried},
		{"Resilience.Shed", rl.Shed, abortShed},
		{"QoS.Decisions", q.Decisions, qosDecides},
		{"QoS.Increases", q.Increases, increases},
		{"QoS.Decreases", q.Decreases, decreases},
		{"Buffer.Decisions", b.Buffer.Decisions, decisions},
	}
}

// runGatePoint replays ext-pressure's bullet+gate point at 8 req/s with
// 80 requests (its -quick size): the gate-only pressure subsystem under
// the study's KV-shrink fault schedule, watchdog armed, which defers and
// sheds admissions.
func runGatePoint() *Bullet {
	const rate, n, seed = 8, 80, 42
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), workload.AzureCode.Name)
	b := New(env, Options{Mode: ModeFull, Pressure: &pressure.Config{DisablePreemption: true}})
	b.AttachTimeline(timeline.New(0))
	fcfg := faults.DefaultConfig(env.GPU.Spec.NumSMs, units.Scale(units.Over(units.Seconds(n), rate), 1.5))
	fcfg.Seed = seed + 1
	fcfg.DegradeRate, fcfg.StallRate, fcfg.CrashRate = 0, 0, 0
	fcfg.KVShrinkRate = 0.05
	fcfg.MeanKVShrinkFraction = 0.55
	fcfg.MeanKVShrinkDuration = units.Seconds(10)
	inj := faults.NewInjector(env.Sim, faults.Generate(fcfg))
	b.AttachFaults(inj, DefaultWatchdog())
	inj.Arm()
	b.RunTrace(workload.Generate(workload.AzureCode, rate, n, seed))
	return b
}

// TestCountersMatchTimeline reconciles the two ways a run reports what
// happened: on runs that preempt, recover by both paths, defer, shed,
// abort hung batches (retrying and shedding them) and drive the QoS
// loop, every counter equals the count of the timeline instants that
// account for it.
func TestCountersMatchTimeline(t *testing.T) {
	squeeze := func(hostBW units.BytesPerSec, retries int) func(t *testing.T) *Bullet {
		return func(t *testing.T) *Bullet {
			cfg := squeezeConfig()
			cfg.HostBandwidth = hostBW
			cfg.MaxRecoveryRetries = retries
			_, b, _ := runSqueeze(t, cfg)
			return b
		}
	}
	cases := []struct {
		name    string
		run     func(t *testing.T) *Bullet
		nonzero []string // counters this run must exercise
	}{
		{"squeeze-recompute", squeeze(1, 0),
			[]string{"Pressure.Preemptions", "Pressure.Recomputes", "Buffer.Decisions"}},
		{"squeeze-retransfer", squeeze(1e15, 500),
			[]string{"Pressure.Preemptions", "Pressure.Retransfers", "Pressure.AdmissionsDeferred"}},
		{"gate-8rps", func(*testing.T) *Bullet { return runGatePoint() },
			[]string{"Pressure.AdmissionsDeferred", "Pressure.Shed", "Pressure.KVShrinks"}},
		{"hung-prefill", func(*testing.T) *Bullet { _, b := runHungPrefill(); return b },
			[]string{"Resilience.BatchAborts", "Resilience.Retried"}},
		{"repeated-hangs", func(*testing.T) *Bullet { _, b := runRepeatedHangs(); return b },
			[]string{"Resilience.BatchAborts", "Resilience.Shed"}},
		{"qos-shed-squeeze", func(*testing.T) *Bullet {
			// TestQoSShedOrder's squeeze: the class deferral budgets shed
			// through Controller.RecordShed, not the admission tier.
			env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
			env.KV = kvcache.NewPool(160, serving.KVBlockTokens)
			pcfg := pressure.Config{DisablePreemption: true, MaxDeferrals: 64}
			b := New(env, Options{Mode: ModeFull, Pressure: &pcfg, QoS: &qos.Config{}})
			b.AttachTimeline(timeline.New(0))
			b.RunTrace(shedTrace())
			return b
		}, []string{"Pressure.Shed", "Pressure.AdmissionsDeferred", "QoS.Decisions"}},
		{"qos-12rps", func(*testing.T) *Bullet {
			trace := workload.GenerateTenantMix(workload.AzureCode, 12, 80, 42, workload.DefaultTenantMix())
			_, b := runQoS(trace, pressure.Config{})
			return b
		}, []string{"QoS.Decisions", "QoS.Increases", "QoS.Decreases"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := c.run(t)
			if b.tl.Dropped() != 0 {
				t.Fatalf("recorder dropped %d events", b.tl.Dropped())
			}
			pairs := counterPairs(t, b, b.tl.Events())
			for _, p := range pairs {
				if p.counter != p.timeline {
					t.Errorf("%s = %d, timeline accounts for %d", p.name, p.counter, p.timeline)
				}
			}
			for _, name := range c.nonzero {
				for _, p := range pairs {
					if p.name == name && p.counter == 0 {
						t.Errorf("%s is zero: the run does not exercise it", name)
					}
				}
			}
		})
	}
}
