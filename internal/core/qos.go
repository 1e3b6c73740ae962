package core

import (
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/workload"
)

// enableQoS arms the SLO-feedback QoS subsystem: the decode batch cap
// and prefill chunk-token budget come under the AIMD controller's
// feedback loop between floors and the engines' static caps maxDecode
// and maxPrefillTokens, tenant classes drive admission priority at the
// pressure gate, weighted fairness in the scheduler's SM split, and
// preemption-victim order, and every completed or shed request feeds the
// controller's per-class accounting. New calls it when Options.QoS is
// set. The completion and shed hooks chain onto any observer already
// installed (the cluster's outbox hooks, wired before New), preserving
// per-replica determinism.
func (b *Bullet) enableQoS(maxDecode, maxPrefillTokens int) {
	ctrl := qos.New(b.env.SLO, maxDecode, maxPrefillTokens)
	b.qos = ctrl
	b.Prefill.QoS = ctrl
	b.Decode.QoS = ctrl
	prevComplete := b.env.OnComplete
	b.env.OnComplete = func(r metrics.Request) {
		ctrl.ObserveCompletion(b.env.Sim.Now(), r, b.env.KV.Occupancy())
		if prevComplete != nil {
			prevComplete(r)
		}
	}
	prevShed := b.env.OnShed
	b.env.OnShed = func(r workload.Request) {
		ctrl.RecordShed(qos.ClassOf(r.Tenant))
		if prevShed != nil {
			prevShed(r)
		}
	}
	b.name += "+qos"
}

// QoSController returns the controller armed by Options.QoS (nil when
// QoS is off).
func (b *Bullet) QoSController() *qos.Controller { return b.qos }

// QoS returns the QoS controller's decision and per-class accounting
// (zero when off).
func (b *Bullet) QoS() qos.Metrics {
	if b.qos == nil {
		return qos.Metrics{}
	}
	return b.qos.Metrics()
}
