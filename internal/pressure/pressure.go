// Package pressure implements the memory-pressure subsystem: watermark
// admission control over the shared KV pool, victim accounting for decode
// preemption, and the recompute-vs-retransfer recovery cost model.
//
// The controller is pure policy: it never mutates the pool or the
// engines. The engines ask it for admission tiers and block deficits; the
// core orchestrates preemption and recovery and reports the outcomes back
// so the controller can keep the metrics.Pressure counters and emit
// timeline instants. Everything is deterministic — the controller holds
// no randomness and runs on the single simulator thread.
//
// Admission works on projected occupancy with hysteresis: a request is
// admitted while (used+need)/total stays at or below the high watermark;
// crossing it latches the controller into a pressured state in which
// admissions must fit under the low watermark instead, and the latch only
// clears once current occupancy itself falls below the low watermark.
// That gap keeps the gate from flapping admit/defer around one threshold.
package pressure

import (
	"math"

	"repro/internal/estimator"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/timeline"
	"repro/internal/units"
)

// Tier is an admission decision.
type Tier int

const (
	// TierAdmit lets the request reserve KV now.
	TierAdmit Tier = iota
	// TierDefer pushes the request back; the engine re-tries on KV
	// release or after a backoff.
	TierDefer
	// TierShed gives up on the request (it can never fit, or it has been
	// deferred past its budget).
	TierShed
)

// String returns the tier name used in timeline args and reports.
func (t Tier) String() string {
	switch t {
	case TierAdmit:
		return "admit"
	case TierDefer:
		return "defer"
	case TierShed:
		return "shed"
	}
	return "unknown"
}

// Prio is the admission priority of a request, ordered low to high:
// lower priorities meet tighter watermarks and smaller deferral budgets,
// so under sustained pressure the gate sheds strictly lowest-first. The
// qos package maps tenant classes onto these levels; priority-unaware
// callers pass PrioPremium, which behaves exactly as the gate did before
// priorities existed.
type Prio int

const (
	// PrioBestEffort is shed first: quarter deferral budget, tightest
	// effective watermark.
	PrioBestEffort Prio = iota
	// PrioStandard sits between: half budget, one margin step tighter.
	PrioStandard
	// PrioPremium is the legacy (and strictest-SLO) level: full budget,
	// the configured watermarks unmodified.
	PrioPremium
)

// Recovery is the path chosen to restore a preempted decode sequence.
type Recovery int

const (
	// Recompute re-runs the full prefill to rebuild the KV.
	Recompute Recovery = iota
	// Retransfer re-transfers the saved KV bytes through the metadata
	// buffer (the host-side copy the paper's shared pool enables).
	Retransfer
)

// String returns the recovery-path name.
func (r Recovery) String() string {
	if r == Retransfer {
		return "retransfer"
	}
	return "recompute"
}

// Config parameterizes the controller. Zero fields take the defaults
// documented on each; see DefaultConfig.
type Config struct {
	// LowWatermark is the occupancy fraction the pool must drop below to
	// clear the pressured latch, and the admission ceiling while
	// pressured. Default 0.80.
	LowWatermark float64
	// HighWatermark is the occupancy fraction above which admissions
	// defer and decode preemption engages. Default 0.90.
	HighWatermark float64
	// CriticalWatermark is the occupancy fraction above which deferral
	// budgets are halved — the gate sheds sooner when the pool is nearly
	// exhausted. Default 0.97.
	CriticalWatermark float64
	// MaxDeferrals is how many times one request may be deferred before
	// the gate sheds it (SLO-aware: a request deferred this often has
	// no chance of meeting its deadline). Default 8.
	MaxDeferrals int
	// MaxPreemptions is K in the shed policy: a request preempted more
	// than K times is shed instead of recovered. Default 3.
	MaxPreemptions int
	// MaxRecoveryRetries bounds how often a retransfer re-allocation may
	// retry before degrading to recompute. Default 5.
	MaxRecoveryRetries int
	// BackoffBase is the first recovery/deferral backoff delay; attempt
	// n waits BackoffBase·2^(n-1), capped at BackoffCap. Defaults 2ms
	// and 256ms.
	BackoffBase units.Seconds
	BackoffCap  units.Seconds
	// HostBandwidth is the effective host<->device bandwidth used for the
	// retransfer cost and transfer latency (PCIe 4.0 x16 practical
	// throughput). Default 25 GB/s.
	HostBandwidth units.BytesPerSec
	// DisablePreemption keeps the admission gate but never preempts
	// decode sequences — the no-preemption ablation baseline ext-pressure
	// compares against. Default false (preemption on).
	DisablePreemption bool
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		LowWatermark:       0.80,
		HighWatermark:      0.90,
		CriticalWatermark:  0.97,
		MaxDeferrals:       8,
		MaxPreemptions:     3,
		MaxRecoveryRetries: 5,
		BackoffBase:        units.FromMs(2),
		BackoffCap:         units.FromMs(256),
		HostBandwidth:      units.BytesPerSec(25e9),
	}
}

const (
	// recomputePenalty biases the recovery cost model against recompute
	// (burning SMs that could serve admitted work).
	recomputePenalty = 1.25
	// priorityMargin tightens the effective admission watermark per
	// priority level below PrioPremium: a PrioStandard request admits
	// against limit−margin, PrioBestEffort against limit−2·margin. With
	// the halving deferral budgets this yields the strict shed order
	// best-effort → standard → premium under sustained pressure.
	priorityMargin = 0.04
)

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LowWatermark <= 0 {
		c.LowWatermark = d.LowWatermark
	}
	if c.HighWatermark <= 0 {
		c.HighWatermark = d.HighWatermark
	}
	if c.CriticalWatermark <= 0 {
		c.CriticalWatermark = d.CriticalWatermark
	}
	if c.MaxDeferrals <= 0 {
		c.MaxDeferrals = d.MaxDeferrals
	}
	if c.MaxPreemptions <= 0 {
		c.MaxPreemptions = d.MaxPreemptions
	}
	if c.MaxRecoveryRetries <= 0 {
		c.MaxRecoveryRetries = d.MaxRecoveryRetries
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = d.BackoffCap
	}
	if c.HostBandwidth <= 0 {
		c.HostBandwidth = d.HostBandwidth
	}
	return c
}

// Controller is the per-replica pressure policy. Not safe for concurrent
// use; the simulation is single-threaded by design.
type Controller struct {
	pool            *kvcache.Pool
	est             *estimator.Estimator
	kvBytesPerToken units.Bytes
	cfg             Config
	tl              *timeline.Recorder
	m               metrics.Pressure
	pressured       bool
}

// New builds a controller over pool. est drives the recompute side of the
// recovery cost model and kvBytesPerToken the retransfer side; cfg zero
// fields take defaults.
func New(pool *kvcache.Pool, est *estimator.Estimator, kvBytesPerToken units.Bytes, cfg Config) *Controller {
	if pool == nil {
		panic("pressure: nil pool")
	}
	c := cfg.withDefaults()
	if c.LowWatermark >= c.HighWatermark || c.HighWatermark >= c.CriticalWatermark {
		panic("pressure: watermarks must satisfy low < high < critical")
	}
	return &Controller{pool: pool, est: est, kvBytesPerToken: kvBytesPerToken, cfg: c}
}

// SetTimeline attaches a recorder; nil disables pressure instants.
func (c *Controller) SetTimeline(tl *timeline.Recorder) { c.tl = tl }

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Pressured reports whether the hysteresis latch is set.
func (c *Controller) Pressured() bool { return c.pressured }

// Metrics returns a copy of the accumulated counters.
func (c *Controller) Metrics() metrics.Pressure { return c.m }

// KVBytesPerToken returns the per-token KV footprint the cost model uses.
func (c *Controller) KVBytesPerToken() units.Bytes { return c.kvBytesPerToken }

func (c *Controller) observeOccupancy() float64 {
	occ := c.pool.Occupancy()
	if occ > c.m.PeakOccupancy {
		c.m.PeakOccupancy = occ
	}
	return occ
}

func (c *Controller) blocksFor(tokens int) int {
	bt := c.pool.BlockTokens()
	return (tokens + bt - 1) / bt
}

// AdmitPrio decides the admission tier for a request needing needTokens
// of KV (prompt plus full output budget, the engines' lifetime
// reservation) that has already been deferred deferrals times. It
// updates the hysteresis latch, counters, and peak occupancy, and emits
// one timeline instant per decision. Levels below PrioPremium face a
// watermark tightened by priorityMargin per step and a deferral budget
// halved per step, so the gate defers and sheds best-effort traffic
// strictly before standard, and standard strictly before premium;
// PrioPremium is the priority-unaware gate.
//
//bullet:hotpath
func (c *Controller) AdmitPrio(now units.Seconds, id string, needTokens, deferrals int, prio Prio) Tier {
	cur := c.observeOccupancy()
	if c.pressured && cur < c.cfg.LowWatermark {
		c.pressured = false
	}

	tier := c.decide(cur, needTokens, deferrals, prio)
	switch tier {
	case TierDefer:
		c.m.AdmissionsDeferred++
	case TierShed:
		c.m.Shed++
	}
	if c.tl != nil {
		c.tl.Instant("pressure", "admission", now,
			timeline.S("req", id),
			timeline.S("tier", tier.String()),
			timeline.F("occupancy", cur),
			timeline.I("need_tokens", needTokens),
			timeline.I("deferrals", deferrals),
			timeline.B("pressured", c.pressured),
		)
	}
	return tier
}

//bullet:hotpath
func (c *Controller) decide(cur float64, needTokens, deferrals int, prio Prio) Tier {
	need := c.blocksFor(needTokens)
	total := c.pool.TotalBlocks()
	if total == 0 || need > total {
		return TierShed // can never fit, even in an empty pool
	}
	if deferrals >= c.deferBudgetAt(cur, prio) {
		return TierShed
	}
	// steps is the distance below premium: 0 for premium, 1 standard,
	// 2 best-effort. Premium therefore reproduces the priority-unaware
	// gate bit for bit.
	steps := int(PrioPremium - prio)
	if steps < 0 {
		steps = 0
	}
	limit := c.cfg.HighWatermark
	if c.pressured {
		limit = c.cfg.LowWatermark
	}
	limit -= priorityMargin * float64(steps)
	projected := float64(c.pool.UsedBlocks()+need) / float64(total)
	if projected > limit || !c.pool.CanAllocate(needTokens) {
		if projected > c.cfg.HighWatermark {
			c.pressured = true
		}
		return TierDefer
	}
	return TierAdmit
}

// DeferBudget returns the deferral budget AdmitPrio sheds at for prio,
// at the pool's current occupancy: MaxDeferrals halved once per priority
// level below premium, and halved again above the critical watermark.
// Engines use it to retire queued requests whose budget a head-of-queue
// deferral round has exhausted, so budgets burn at the same cadence for
// every blocked request regardless of queue position.
//
//bullet:hotpath
func (c *Controller) DeferBudget(prio Prio) int {
	return c.deferBudgetAt(c.pool.Occupancy(), prio)
}

//bullet:hotpath
func (c *Controller) deferBudgetAt(cur float64, prio Prio) int {
	steps := int(PrioPremium - prio)
	if steps < 0 {
		steps = 0
	}
	budget := c.cfg.MaxDeferrals >> steps
	if cur > c.cfg.CriticalWatermark {
		budget /= 2
	}
	return budget
}

// PhysicalDeficit returns the blocks preemption must free before an
// allocation of needTokens can physically succeed. Zero when the
// allocation already fits — watermark-driven deferrals relieve
// themselves by waiting for decode completions, and evicting live
// decode work to admit new work under plain overload trades finished
// requests for unfinished ones. Zero also while a capacity shrink is
// still draining: freed blocks retire before they return to the free
// list, so a victim evicted mid-drain pays the retirement debt instead
// of the stuck admission, destroying finishing work for no headroom.
// Preemption engages only when waiting cannot help: the pool has
// settled (no drain debt) and the free list still cannot cover the
// head request.
//
//bullet:hotpath
func (c *Controller) PhysicalDeficit(needTokens int) int {
	if c.pool.RetirePending() > 0 {
		return 0
	}
	short := c.blocksFor(needTokens) - c.pool.FreeBlocks()
	if short <= 0 {
		return 0
	}
	return short
}

// CanReadmit reports whether re-reserving needTokens for a preemption
// victim would keep the pool at or below the high watermark. Victims
// re-enter below the fresh-admission bar (which tightens to the low
// watermark while pressured) but must not push the pool back into the
// pressured band — that would re-trigger the very deferrals whose
// relief evicted them.
//
//bullet:hotpath
func (c *Controller) CanReadmit(needTokens int) bool {
	if !c.pool.CanAllocate(needTokens) {
		return false
	}
	projected := float64(c.pool.UsedBlocks()+c.blocksFor(needTokens)) / float64(c.pool.TotalBlocks())
	return projected <= c.cfg.HighWatermark
}

// ShouldShedVictim reports whether a preemption victim that has already
// been preempted preemptions times should be shed instead of recovered.
//
//bullet:hotpath
func (c *Controller) ShouldShedVictim(preemptions int) bool {
	return preemptions > c.cfg.MaxPreemptions
}

// Backoff returns the delay before recovery/readmission attempt n
// (1-based): BackoffBase·2^(n-1), capped at BackoffCap.
//
//bullet:hotpath
func (c *Controller) Backoff(attempt int) units.Seconds {
	if attempt < 1 {
		attempt = 1
	}
	exp := attempt - 1
	if exp > 30 {
		exp = 30
	}
	d := units.Scale(c.cfg.BackoffBase, math.Pow(2, float64(exp)))
	return units.Min(d, c.cfg.BackoffCap)
}

// ChooseRecovery picks the cheaper restoration path for a victim holding
// ctxTokens of KV context: re-running its prefill on sms SMs (biased by
// recomputePenalty) versus re-transferring the saved bytes through the
// metadata buffer with bufferLatency fixed overhead.
func (c *Controller) ChooseRecovery(ctxTokens, sms int, bufferLatency units.Seconds) Recovery {
	if c.est == nil || c.kvBytesPerToken <= 0 {
		return Recompute
	}
	recompute := units.Scale(c.est.PrefillTotalTime(ctxTokens, sms, true), recomputePenalty)
	retransfer := bufferLatency + c.RetransferTime(ctxTokens)
	if retransfer < recompute {
		return Retransfer
	}
	return Recompute
}

// RetransferBytes returns the KV payload of ctxTokens of context.
func (c *Controller) RetransferBytes(ctxTokens int) units.Bytes {
	return units.Scale(c.kvBytesPerToken, float64(ctxTokens))
}

// RetransferTime returns the wire time to move ctxTokens of KV at the
// configured host bandwidth.
func (c *Controller) RetransferTime(ctxTokens int) units.Seconds {
	return c.RetransferBytes(ctxTokens).Div(c.cfg.HostBandwidth)
}

// RecordPreemption accounts one decode preemption freeing blocks blocks
// from victim id (its preemptions count now being n).
func (c *Controller) RecordPreemption(now units.Seconds, id string, blocks, n int) {
	c.m.Preemptions++
	occ := c.observeOccupancy()
	if c.tl != nil {
		c.tl.Instant("pressure", "preempt", now,
			timeline.S("req", id),
			timeline.I("blocks_freed", blocks),
			timeline.I("preemptions", n),
			timeline.F("occupancy", occ),
		)
	}
}

// RecordRecovery accounts the start of a recovery on path r for victim id
// with ctxTokens of context to restore.
func (c *Controller) RecordRecovery(now units.Seconds, id string, r Recovery, ctxTokens int) {
	switch r {
	case Recompute:
		c.m.Recomputes++
		c.m.RecomputedTokens += ctxTokens
	case Retransfer:
		c.m.Retransfers++
		c.m.RetransferredBytes += c.RetransferBytes(ctxTokens)
	}
	if c.tl != nil {
		c.tl.Instant("pressure", "recover", now,
			timeline.S("req", id),
			timeline.S("path", r.String()),
			timeline.I("ctx_tokens", ctxTokens),
		)
	}
}

// RecordShed accounts the pressure subsystem giving up on request id for
// reason (e.g. "preempt-budget", "defer-budget", "never-fits").
func (c *Controller) RecordShed(now units.Seconds, id, reason string) {
	c.m.Shed++
	if c.tl != nil {
		c.tl.Instant("pressure", "shed", now,
			timeline.S("req", id),
			timeline.S("reason", reason),
		)
	}
}

// RecordKVShrink accounts a live capacity-reduction fault that retired
// blocks of capacity (restored reports the reverse transition).
func (c *Controller) RecordKVShrink(now units.Seconds, blocks int, restored bool) {
	if !restored {
		c.m.KVShrinks++
	}
	occ := c.observeOccupancy()
	if c.tl != nil {
		name := "kv-shrink"
		if restored {
			name = "kv-restore"
		}
		c.tl.Instant("pressure", name, now,
			timeline.I("blocks", blocks),
			timeline.F("occupancy", occ),
		)
	}
}
