package core

import (
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/pressure"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// enablePressure arms the memory-pressure subsystem: the prefill engine's
// admissions go through a watermark gate, deferred admissions trigger
// decode preemption (unless the config disables it), and preempted
// victims are recovered by recompute or KV retransfer — or shed once
// they exhaust the preemption budget. New calls it when
// Options.Pressure is set.
func (b *Bullet) enablePressure(cfg pressure.Config) {
	ctrl := pressure.New(b.env.KV, b.Estimator, b.env.Model.KVBytesPerToken(), cfg)
	b.pressure = ctrl
	b.Prefill.Gate = ctrl
	if ctrl.Config().DisablePreemption {
		b.name += "+gate"
		return
	}
	b.Prefill.OnPressure = b.relievePressure
	b.name += "+pressure"
}

// Pressure returns the memory-pressure accounting (zero when off).
func (b *Bullet) Pressure() metrics.Pressure {
	if b.pressure == nil {
		return metrics.Pressure{}
	}
	return b.pressure.Metrics()
}

// relievePressure preempts decode sequences that arrived after
// requester to free deficit blocks, and routes each victim into
// recovery or shed. It is the gate's OnPressure hook.
func (b *Bullet) relievePressure(deficit int, requester sim.Time) {
	if deficit <= 0 {
		return
	}
	victims := b.Decode.Preempt(deficit, requester)
	if len(victims) == 0 {
		return
	}
	now := b.env.Sim.Now()
	bt := b.env.KV.BlockTokens()
	for _, v := range victims {
		v := v
		blocks := (v.NewTokens() + v.W.OutputTokens + bt - 1) / bt
		b.pressure.RecordPreemption(now, v.W.ID, blocks, v.Preemptions)
		if b.pressure.ShouldShedVictim(v.Preemptions) {
			v.CloseTrail(now)
			v.ReleasePrefix()
			b.pressure.RecordShed(now, v.W.ID, "preempt-budget")
			b.env.Shed(v.W)
			continue
		}
		// Backoff before recovering: the admission that raised pressure
		// gets first claim on the freed blocks.
		b.env.Sim.PostAfter(b.pressure.Backoff(v.Preemptions), func() {
			b.recoverVictim(v, 1)
		})
	}
}

// recoverVictim restores one preempted request on the cheaper path the
// cost model picks. Retransfer re-reserves the victim's KV and replays
// the saved bytes through the metadata buffer; while the pool stays too
// tight to re-reserve, the attempt retries with backoff and degrades to
// recompute once the retry budget is spent. Recompute rewinds the request
// and re-enqueues it through the admission gate.
func (b *Bullet) recoverVictim(v *engine.Req, attempt int) {
	now := b.env.Sim.Now()
	choice := pressure.Recompute
	if attempt <= b.pressure.Config().MaxRecoveryRetries {
		choice = b.pressure.ChooseRecovery(v.Ctx(), b.Resources.NumSMs(),
			b.Buffer.Latency+b.Buffer.ExtraLatency())
	}
	if choice == pressure.Retransfer {
		need := v.NewTokens() + v.W.OutputTokens
		if !b.pressure.CanReadmit(need) {
			b.env.Sim.PostAfter(b.pressure.Backoff(attempt+1), func() {
				b.recoverVictim(v, attempt+1)
			})
			return
		}
		seq, err := b.env.KV.Allocate(v.W.ID, need, "decode")
		if err != nil {
			b.env.Sim.PostAfter(b.pressure.Backoff(attempt+1), func() {
				b.recoverVictim(v, attempt+1)
			})
			return
		}
		v.Seq = seq
		v.CloseTrail(now)
		v.DecodeStart = 0 // Accept re-stamps at delivery
		b.pressure.RecordRecovery(now, v.W.ID, pressure.Retransfer, v.Ctx())
		b.Buffer.TransferKV(b.pressure.RetransferBytes(v.Ctx()), b.pressure.RetransferTime(v.Ctx()), func() {
			v.AppendTrail("kv-retransfer", now, b.env.Sim.Now())
			b.Decode.Accept([]*engine.Req{v})
		})
		return
	}
	b.pressure.RecordRecovery(now, v.W.ID, pressure.Recompute, v.NewTokens())
	// Rewind the run state; the trail keeps the history, and the prefill
	// engine seals the open preempted span when the re-run launches. The
	// prefix pin (if any) survives — the cached prefix is still valid.
	v.PrefillStart = 0
	v.FirstToken = 0
	v.DecodeStart = 0
	v.Generated = 0
	b.Prefill.Requeue([]*engine.Req{v})
}

// onKVShrink applies a live KV capacity-reduction fault: the pool retires
// the faulted fraction (draining live blocks as sequences free them),
// pressure relief preempts decode sequences to cover any drain shortfall,
// and the capacity restores after the fault's duration.
func (b *Bullet) onKVShrink(ev faults.Event) {
	if ev.KVFraction <= 0 {
		return
	}
	now := b.env.Sim.Now()
	n := int(ev.KVFraction * float64(b.env.KV.TotalBlocks()))
	if n <= 0 {
		return
	}
	if b.tl != nil {
		b.tl.Instant("faults", "kv-shrink", now,
			timeline.I("blocks", n),
			timeline.F("fraction", ev.KVFraction),
			timeline.F("seconds", ev.Duration.Float()))
	}
	b.env.KV.Shrink(n)
	if b.pressure != nil {
		// No eager preemption here: in-flight decodes already hold
		// their blocks and finish regardless of the shrink — the
		// retirement debt only starves new admissions, which the gate
		// defers. Preemption engages from the admission path once the
		// debt has drained and the settled pool still cannot fit the
		// head request (Controller.PhysicalDeficit).
		b.pressure.RecordKVShrink(now, n, false)
	}
	if ev.Duration > 0 {
		b.env.Sim.PostAfter(ev.Duration, func() {
			b.env.KV.Restore(n)
			b.Buffer.PublishKVRelease()
			if b.pressure != nil {
				b.pressure.RecordKVShrink(b.env.Sim.Now(), n, true)
			}
			if b.faults != nil {
				b.faults.Recovered(ev.Duration)
			}
		})
	}
}
