package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
)

// WatchdogConfig bounds the resilience path for hung prefill batches: a
// batch stalled past Timeout is aborted, its requests re-enqueued after
// Backoff (releasing their KV in between), and a request that has been
// re-executed more than MaxRetries times is shed instead.
type WatchdogConfig struct {
	Timeout    sim.Time
	MaxRetries int
	Backoff    sim.Time
}

// DefaultWatchdog returns the standard bounds: abort after 250 ms of
// virtual-time hang, re-enqueue after a 10 ms backoff, give a request
// three re-executions before shedding it.
func DefaultWatchdog() WatchdogConfig {
	return WatchdogConfig{Timeout: units.FromMs(250), MaxRetries: 3, Backoff: units.FromMs(10)}
}

// faultState is the per-instance resilience bookkeeping, allocated only
// when faults are enabled so healthy runs carry no extra state. The
// embedded ledger counts this instance's batch aborts, retries, sheds
// and recoveries as they happen.
type faultState struct {
	metrics.Resilience
	wcfg WatchdogConfig
	// bufferFaults fences overlapping buffer-latency restorations
	// (last-write-wins).
	bufferFaults int
}

// EnableResilience arms the watchdog and fault bookkeeping. It must be
// called (directly or via AttachFaults) before ApplyFault.
func (b *Bullet) EnableResilience(wcfg WatchdogConfig) {
	if wcfg.Timeout <= 0 || wcfg.MaxRetries < 0 || wcfg.Backoff < 0 {
		panic(fmt.Sprintf("core: invalid watchdog config %+v", wcfg))
	}
	if b.faults != nil {
		panic("core: resilience enabled twice")
	}
	b.faults = &faultState{wcfg: wcfg}
}

// AttachFaults arms resilience and registers this instance as the
// injector's handler for the single-device fault kinds (SM degradation
// and engine stalls). Replica crashes are a cluster-level concern — see
// cluster.AttachFaults.
func (b *Bullet) AttachFaults(inj *faults.Injector, wcfg WatchdogConfig) {
	b.EnableResilience(wcfg)
	inj.Handle(faults.KindSMDegrade, b.ApplyFault)
	inj.Handle(faults.KindEngineStall, b.ApplyFault)
	inj.Handle(faults.KindKVShrink, b.ApplyFault)
}

// ApplyFault applies one fault event to this instance. EnableResilience
// must have been called first.
func (b *Bullet) ApplyFault(ev faults.Event) {
	if b.faults == nil {
		panic(fmt.Sprintf("core: ApplyFault(%q) without EnableResilience", ev.Kind))
	}
	switch ev.Kind {
	case faults.KindSMDegrade:
		b.onSMDegrade(ev)
	case faults.KindEngineStall:
		b.onEngineStall(ev)
	case faults.KindKVShrink:
		b.onKVShrink(ev)
	default:
		panic(fmt.Sprintf("core: fault kind %q is not a single-device fault", ev.Kind))
	}
}

// onSMDegrade throttles the faulted SM range and re-provisions; the
// transient recovery restores full health and re-provisions again.
// Overlapping degradations are last-write-wins per SM, matching the
// schedule generator's documented semantics.
func (b *Bullet) onSMDegrade(ev faults.Event) {
	if b.tl != nil {
		b.tl.Instant("faults", "sm-degrade", b.env.Sim.Now(),
			timeline.I("firstSM", ev.FirstSM),
			timeline.I("numSMs", ev.NumSMs),
			timeline.F("throttle", ev.Throttle))
	}
	b.env.GPU.SetSMHealth(ev.FirstSM, ev.NumSMs, ev.Throttle)
	b.reprovision()
	if ev.Duration > 0 {
		b.env.Sim.PostAfter(ev.Duration, func() {
			b.env.GPU.SetSMHealth(ev.FirstSM, ev.NumSMs, 1)
			b.reprovision()
			b.faults.Recovered(ev.Duration)
		})
	}
}

// reprovision is the resilience core: rebuild the masked-stream table
// around the currently-dead SMs and point Algorithm 1 at the shrunken
// (or restored) budget. Dynamic modes re-optimize the prefill/decode
// split on the next cycle; static modes merely get their fixed quota
// clamped to what still exists — which is exactly the gap ext-faults
// measures.
func (b *Bullet) reprovision() {
	healthy := b.env.GPU.HealthyMask()
	if healthy.IsEmpty() {
		// Whole device dead: nothing to rebuild onto. In-flight kernels
		// limp at the drain floor until a recovery restores health.
		return
	}
	b.Resources.Rebuild(healthy)
	b.Scheduler.SetCapacity(b.Resources.Avail(), b.Resources.Levels())
}

// onEngineStall hangs the targeted component. Prefill hangs longer than
// the watchdog timeout trigger the abort/retry path; everything else
// simply waits the stall out.
func (b *Bullet) onEngineStall(ev faults.Event) {
	if b.tl != nil {
		b.tl.Instant("faults", "stall", b.env.Sim.Now(),
			timeline.S("target", string(ev.Target)),
			timeline.F("seconds", ev.Stall.Float()))
	}
	switch ev.Target {
	case faults.TargetBuffer:
		b.faults.bufferFaults++
		token := b.faults.bufferFaults
		b.Buffer.SetExtraLatency(ev.Stall)
		b.env.Sim.PostAfter(ev.Stall, func() {
			if b.faults.bufferFaults == token {
				b.Buffer.SetExtraLatency(0)
			}
			b.faults.Recovered(ev.Stall)
		})
	case faults.TargetDecode:
		b.Decode.Stall(ev.Stall)
		b.env.Sim.PostAfter(ev.Stall, func() { b.faults.Recovered(ev.Stall) })
	case faults.TargetPrefill:
		b.Prefill.Stall(ev.Stall)
		if ev.Stall > b.faults.wcfg.Timeout && b.Prefill.Running() {
			ep := b.Prefill.Epoch()
			b.env.Sim.PostAfter(b.faults.wcfg.Timeout, func() { b.watchdogFire(ep) })
			return
		}
		b.env.Sim.PostAfter(ev.Stall, func() { b.faults.Recovered(ev.Stall) })
	default:
		panic(fmt.Sprintf("core: unknown stall target %q", ev.Target))
	}
}

// watchdogFire aborts a prefill batch that is still hung past the
// timeout: KV is released immediately, requests with retry budget left
// are re-enqueued after the backoff, the rest are shed.
func (b *Bullet) watchdogFire(ep int) {
	if b.Prefill.Epoch() != ep || !b.Prefill.Running() || !b.Prefill.Stalled() {
		// The batch finished, cleared, or another watchdog already acted.
		b.faults.Recovered(b.faults.wcfg.Timeout)
		return
	}
	aborted := b.Prefill.AbortBatch()
	b.faults.BatchAborts++
	var keep []*engine.Req
	shed := 0
	for _, r := range aborted {
		if r.Retries > b.faults.wcfg.MaxRetries {
			b.faults.Shed++
			shed++
			b.env.Shed(r.W)
			continue
		}
		b.faults.Retried++
		keep = append(keep, r)
	}
	b.faults.Recovered(b.faults.wcfg.Timeout)
	if b.tl != nil {
		b.tl.Instant("watchdog", "abort", b.env.Sim.Now(),
			timeline.I("aborted", len(aborted)),
			timeline.I("retried", len(keep)),
			timeline.I("shed", shed))
	}
	if len(keep) > 0 {
		b.env.Sim.PostAfter(b.faults.wcfg.Backoff, func() { b.Prefill.Requeue(keep) })
	}
}

// Resilience returns this instance's local recovery accounting. The
// caller owns injector-level counters (FaultsInjected, Downtime) — in a
// cluster several instances share one injector, so counting them here
// would double-book.
func (b *Bullet) Resilience() metrics.Resilience {
	if b.faults == nil {
		return metrics.Resilience{}
	}
	return b.faults.Resilience
}
