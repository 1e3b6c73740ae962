// Package qos implements the SLO-feedback dynamic-batching and
// multi-tenant QoS controller: an AIMD loop with hysteresis that resizes
// the decode batch cap and the prefill chunk-token budget from observed
// TTFT/TPOT violations against per-tenant-class SLO targets and live KV
// headroom, plus the tenant-class policy (premium / standard /
// best-effort) the engines, the pressure gate, and the scheduler consult.
//
// The controller is pure policy on the single simulator thread: engines
// read the current caps through DecodeCap/PrefillTokenBudget and feed
// observations back through ObserveStep/ObserveCompletion; decisions
// happen only at virtual-time window boundaries, so a replica's control
// trajectory is a pure function of its own event stream — the property
// that keeps cluster runs byte-identical serial vs parallel.
//
// The loop composes with the pressure gate's watermarks instead of
// fighting them: increases are gated on KV occupancy below the pool's
// low watermark (the gate's own relaxed region), so the controller only
// grows batches where the gate would admit freely, and backs off
// multiplicatively where the gate is about to defer.
package qos

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pressure"
	"repro/internal/timeline"
	"repro/internal/units"
)

// Class is a tenant service class, ordered by priority: best-effort
// sheds first, premium last.
type Class int

const (
	// BestEffort is the lowest class: loosest targets, first to defer
	// and shed under pressure.
	BestEffort Class = iota
	// Standard is the default class for untagged tenants.
	Standard
	// Premium is the strictest class: base SLO targets, protected last.
	Premium
	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// Tenant tags as they appear on workload requests.
const (
	TenantPremium    = "premium"
	TenantStandard   = "standard"
	TenantBestEffort = "best-effort"
)

// String returns the tenant tag for the class.
func (c Class) String() string {
	switch c {
	case Premium:
		return TenantPremium
	case BestEffort:
		return TenantBestEffort
	}
	return TenantStandard
}

// ClassOf maps a workload tenant tag to its class. Unknown and empty
// tags are Standard, so untagged single-tenant traces behave as one
// standard tenant.
func ClassOf(tenant string) Class {
	switch tenant {
	case TenantPremium:
		return Premium
	case TenantBestEffort:
		return BestEffort
	}
	return Standard
}

// Prio maps the class onto the pressure gate's admission priority.
func (c Class) Prio() pressure.Prio {
	switch c {
	case Premium:
		return pressure.PrioPremium
	case BestEffort:
		return pressure.PrioBestEffort
	}
	return pressure.PrioStandard
}

// The controller's fixed policy. The float values are variables, not
// constants, so that 1+deadBand and 1-deadBand round as run-time float64
// sums instead of folding exactly at compile time.
const (
	// minDecodeBatch / minPrefillTokens floor the multiplicative
	// decrease; the ceilings are the engines' static caps passed to New.
	minDecodeBatch   = 8
	minPrefillTokens = 2048
	// decodeStep / prefillStep are the additive-increase increments per
	// window with slack.
	decodeStep  = 16
	prefillStep = 2048
	// cooldownWindows is how many windows after a decrease the
	// controller refuses to increase again — with the dead band, the
	// hysteresis that keeps a square-wave load from making the caps
	// oscillate every window.
	cooldownWindows = 2
)

var (
	// window is the virtual-time width of one control interval: the
	// controller re-decides the caps at most once per window, from the
	// observations accumulated inside it.
	window = units.FromMs(250)
	// decreaseFactor is the multiplicative decrease applied to both caps
	// on an SLO violation.
	decreaseFactor = 0.7
	// deadBand is the hysteresis band around a violation ratio of 1.0:
	// inside [1-deadBand, 1+deadBand] the controller holds.
	deadBand = 0.1
	// headroomFloor is the KV occupancy at or above which increases are
	// suppressed regardless of slack, composing with the pressure gate:
	// growth happens only in the gate's freely-admitting region (its
	// low watermark).
	headroomFloor = pressure.DefaultConfig().LowWatermark
	// sloScale loosens the base SLO per class: {4, 2, 1} for
	// {best-effort, standard, premium} — premium is held to the paper's
	// targets, lower classes trade latency for admission.
	sloScale = [NumClasses]float64{4, 2, 1}
)

// SLOFor returns the class's latency targets: the base SLO scaled by
// the class's SLO scale (4, 2 and 1 for best-effort, standard and
// premium).
func SLOFor(class Class, base metrics.SLO) metrics.SLO {
	s := sloScale[class]
	return metrics.SLO{NormTTFTMs: base.NormTTFTMs * s, TPOTMs: base.TPOTMs * s}
}

// Accounting is the per-class token and outcome bookkeeping the engines
// report into. Token counts conserve: every computed prefill token and
// every generated decode token lands in exactly one class bucket.
type Accounting struct {
	PrefillTokens [NumClasses]int
	DecodeTokens  [NumClasses]int
	Completed     [NumClasses]int
	Shed          [NumClasses]int
}

// Add accumulates another run's accounting into a (cluster aggregation).
func (a *Accounting) Add(o Accounting) {
	for c := 0; c < NumClasses; c++ {
		a.PrefillTokens[c] += o.PrefillTokens[c]
		a.DecodeTokens[c] += o.DecodeTokens[c]
		a.Completed[c] += o.Completed[c]
		a.Shed[c] += o.Shed[c]
	}
}

// TotalPrefillTokens sums the per-class prefill buckets.
func (a Accounting) TotalPrefillTokens() int {
	n := 0
	for c := 0; c < NumClasses; c++ {
		n += a.PrefillTokens[c]
	}
	return n
}

// TotalDecodeTokens sums the per-class decode buckets.
func (a Accounting) TotalDecodeTokens() int {
	n := 0
	for c := 0; c < NumClasses; c++ {
		n += a.DecodeTokens[c]
	}
	return n
}

// Metrics is the controller's decision accounting for one run.
type Metrics struct {
	Decisions int // windows decided
	Increases int // additive-increase steps taken
	Decreases int // multiplicative-decrease steps taken
	// FinalDecodeCap / FinalPrefillTokens are the caps at end of run.
	FinalDecodeCap     int
	FinalPrefillTokens int
	Accounting         Accounting
}

// Controller is the per-replica QoS policy. Not safe for concurrent use;
// the simulation is single-threaded by design.
type Controller struct {
	base metrics.SLO
	tl   *timeline.Recorder

	// minDecode / minPrefill are the floors, clamped to the caps.
	minDecode  int
	minPrefill int
	maxDecode  int
	maxPrefill int

	decodeCap     int
	prefillTokens int

	// Window accumulator: the worst priority-weighted violation ratio
	// observed since the last decision, and how many observations fed it.
	winViol    float64
	winSamples int
	nextDecide units.Seconds
	started    bool
	// cooldown counts windows remaining in which increases are refused
	// after a decrease (the AIMD hysteresis, with the dead band).
	cooldown int

	acct      Accounting
	decisions int
	increases int
	decreases int
}

// New builds a controller enforcing base targets. maxDecode and
// maxPrefillTokens are the engines' static caps — the controller's
// ceilings and starting point, so an idle or satisfied system behaves
// exactly like the static configuration.
func New(base metrics.SLO, maxDecode, maxPrefillTokens int) *Controller {
	if maxDecode <= 0 || maxPrefillTokens <= 0 {
		panic(fmt.Sprintf("qos: invalid caps decode=%d prefillTokens=%d", maxDecode, maxPrefillTokens))
	}
	return &Controller{
		base:      base,
		minDecode: min(minDecodeBatch, maxDecode), minPrefill: min(minPrefillTokens, maxPrefillTokens),
		maxDecode: maxDecode, maxPrefill: maxPrefillTokens,
		decodeCap: maxDecode, prefillTokens: maxPrefillTokens,
	}
}

// SetTimeline attaches a recorder; nil disables qos decision instants.
func (c *Controller) SetTimeline(tl *timeline.Recorder) { c.tl = tl }

// DecodeCap returns the current decode batch cap.
//
//bullet:hotpath
func (c *Controller) DecodeCap() int { return c.decodeCap }

// PrefillTokenBudget returns the current prefill chunk-token budget.
//
//bullet:hotpath
func (c *Controller) PrefillTokenBudget() int { return c.prefillTokens }

// WeightOf returns the scheduler fairness weight of a tenant tag: the
// reciprocal of the class's SLO scale, so a premium request's deadline
// urgency and predicted-TTFT contribution count at full strength while
// lower classes are discounted by exactly the slack their targets grant.
//
//bullet:hotpath
func (c *Controller) WeightOf(class Class) float64 {
	return 1 / sloScale[class]
}

// Accounting returns a copy of the per-class token bookkeeping.
func (c *Controller) Accounting() Accounting { return c.acct }

// Metrics returns the controller's decision accounting.
func (c *Controller) Metrics() Metrics {
	return Metrics{
		Decisions: c.decisions, Increases: c.increases, Decreases: c.decreases,
		FinalDecodeCap: c.decodeCap, FinalPrefillTokens: c.prefillTokens,
		Accounting: c.acct,
	}
}

// AddPrefill accounts tokens computed in a finished prefill for class.
//
//bullet:hotpath
func (c *Controller) AddPrefill(class Class, tokens int) {
	c.acct.PrefillTokens[class] += tokens
}

// AddDecode accounts one generated decode token for class.
//
//bullet:hotpath
func (c *Controller) AddDecode(class Class) {
	c.acct.DecodeTokens[class]++
}

// RecordShed accounts one shed request of class.
func (c *Controller) RecordShed(class Class) {
	c.acct.Shed[class]++
}

// violation folds one observation into the window accumulator: v is the
// priority-weighted SLO violation ratio (1.0 = exactly on target).
func (c *Controller) observe(v float64) {
	if v > c.winViol {
		c.winViol = v
	}
	c.winSamples++
}

// ObserveStep feeds one decode iteration into the feedback loop: the
// step duration is the TPOT increment every batched request just paid,
// measured against the premium target (the strictest class that may be
// in the batch). It then runs the window-boundary decision if due —
// the per-step call site that makes the loop react within one window
// even when no request completes.
//
//bullet:hotpath
func (c *Controller) ObserveStep(now units.Seconds, batch int, stepDur units.Seconds, occupancy float64) {
	if batch > 0 && c.base.TPOTMs > 0 {
		c.observe(stepDur.Ms() / c.base.TPOTMs)
	}
	c.Tick(now, occupancy)
}

// ObserveCompletion feeds one finished request into the feedback loop:
// its normalized TTFT and TPOT are measured against its class's scaled
// targets and weighted by class priority, so a premium miss drives the
// caps down at full strength while a best-effort miss is discounted.
//
//bullet:hotpath
func (c *Controller) ObserveCompletion(now units.Seconds, m metrics.Request, occupancy float64) {
	class := ClassOf(m.Tenant)
	slo := SLOFor(class, c.base)
	w := c.WeightOf(class)
	c.acct.Completed[class]++
	if slo.NormTTFTMs > 0 {
		c.observe(w * (m.NormTTFTMs() / slo.NormTTFTMs))
	}
	if slo.TPOTMs > 0 && m.OutputTokens > 1 {
		c.observe(w * (m.TPOTMs() / slo.TPOTMs))
	}
	c.Tick(now, occupancy)
}

// Tick runs the window-boundary decision when the current window has
// elapsed; between boundaries it is a cheap comparison. Decisions
// depend only on virtual time and the replica's own observations, so
// control trajectories replay bit-identically.
//
//bullet:hotpath
func (c *Controller) Tick(now units.Seconds, occupancy float64) {
	if !c.started {
		c.started = true
		c.nextDecide = now + window
		return
	}
	if now < c.nextDecide {
		return
	}
	c.decide(now, occupancy)
}

// decide is one AIMD step: multiplicative decrease when the window's
// worst weighted violation exceeds the dead band, additive increase when
// there is slack beyond it, KV headroom under the floor, and no cooldown
// in force; hold otherwise. Windows without observations hold.
//
//bullet:hotpath
func (c *Controller) decide(now units.Seconds, occupancy float64) {
	v := c.winViol
	n := c.winSamples
	c.winViol = 0
	c.winSamples = 0
	c.nextDecide = now + window
	c.decisions++

	dir := 0
	switch {
	case n == 0:
		// No traffic this window: hold.
	case v > 1+deadBand:
		nd := clamp(int(float64(c.decodeCap)*decreaseFactor), c.minDecode, c.maxDecode)
		np := clamp(int(float64(c.prefillTokens)*decreaseFactor), c.minPrefill, c.maxPrefill)
		if nd < c.decodeCap || np < c.prefillTokens {
			dir = -1
			c.decreases++
		}
		c.decodeCap, c.prefillTokens = nd, np
		c.cooldown = cooldownWindows
	case v < 1-deadBand && occupancy < headroomFloor:
		if c.cooldown > 0 {
			c.cooldown--
			break
		}
		nd := clamp(c.decodeCap+decodeStep, c.minDecode, c.maxDecode)
		np := clamp(c.prefillTokens+prefillStep, c.minPrefill, c.maxPrefill)
		if nd > c.decodeCap || np > c.prefillTokens {
			dir = 1
			c.increases++
		}
		c.decodeCap, c.prefillTokens = nd, np
	default:
		// Dead band (or no headroom): hold, and let a pending cooldown
		// expire.
		if c.cooldown > 0 {
			c.cooldown--
		}
	}
	if c.tl != nil {
		c.tl.Instant("qos", "decide", now,
			timeline.F("violation", v),
			timeline.I("samples", n),
			timeline.I("dir", dir),
			timeline.I("decode_cap", c.decodeCap),
			timeline.I("prefill_tokens", c.prefillTokens),
			timeline.F("occupancy", occupancy),
		)
	}
}

//bullet:hotpath
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
