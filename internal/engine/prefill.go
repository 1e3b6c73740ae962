package engine

import (
	"fmt"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/prefixcache"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// PrefillConfig shapes the prefill engine's behaviour. The flags double as
// the ablation switches of §4.5.1.
type PrefillConfig struct {
	// LayerGroup is how many layers are launched per scheduling cycle
	// before synchronizing (1 in the paper's example).
	LayerGroup int
	// MaxBatchTokens caps the token total of one prefill batch.
	MaxBatchTokens int
	// MaxBatchReqs caps how many requests are prefilled together.
	MaxBatchReqs int
	// Reorder enables SLO-deadline reordering of the pending queue.
	Reorder bool
	// SLOAdmission stops growing a prefill batch when adding the next
	// request would push an already-admitted request past its TTFT
	// deadline (batched requests all see the batch's completion time).
	SLOAdmission bool
	// DynamicSM applies the scheduler's SM decision; otherwise FixedSMs
	// is used (Naive / w-Scheduler ablations, Fig. 13 sensitivity).
	DynamicSM bool
	FixedSMs  int
}

// prefillCycleOverhead is the CPU cost of one scheduling cycle
// (snapshot + decision + launch), cf. Table 3.
const prefillCycleOverhead sim.Time = 150e-6

// DefaultPrefillConfig returns Bullet's full configuration for a device
// with numSMs SMs.
func DefaultPrefillConfig(numSMs int) PrefillConfig {
	return PrefillConfig{
		LayerGroup:     1,
		MaxBatchTokens: 16384,
		MaxBatchReqs:   8,
		Reorder:        true,
		SLOAdmission:   true,
		DynamicSM:      true,
		FixedSMs:       numSMs,
	}
}

// PrefillEngine runs whole-sequence prefills layer-group by layer-group,
// re-deciding the SM allocation at every group boundary (§3.3.1).
type PrefillEngine struct {
	env  *serving.Env
	res  *resource.Manager
	schd *sched.Scheduler
	est  *estimator.Estimator
	buf  *Buffer
	dec  *DecodeEngine
	cfg  PrefillConfig

	prefix *prefixcache.Cache

	waiting      []*Req
	batch        []*Req
	batchTokens  int
	layersDone   int
	running      bool
	waitingOnKV  bool
	startPending bool

	// stalledUntil holds launches while a fault-injected hang is in
	// force; epoch fences stale continuations (kernel-sync callbacks and
	// cycle reschedules) across watchdog aborts; aborts counts them.
	stalledUntil sim.Time
	epoch        int
	aborts       int

	// Gate, when non-nil, is the memory-pressure admission controller:
	// every KV reservation first asks it for an admit/defer/shed tier.
	// Nil keeps the legacy behaviour (admission blocks only on physical
	// exhaustion).
	Gate *pressure.Controller
	// OnPressure fires when the gate defers an admission, carrying the
	// block deficit that must be relieved and the deferred request's
	// arrival time; the core preempts decode sequences in response, but
	// only ones that arrived strictly later — older work never yields to
	// newer, so a preempted request's re-admission can never evict the
	// request that displaced it (no preemption livelock).
	OnPressure func(deficit int, requester sim.Time)

	// QoS, when non-nil, is the SLO-feedback controller: it supplies the
	// live prefill chunk-token budget (never above MaxBatchTokens), the
	// per-class fairness weights for reordering and SM-split prediction,
	// the gate's admission priorities, and receives per-class token
	// accounting. Nil keeps the legacy behaviour byte for byte.
	QoS *qos.Controller

	// TL, when non-nil, records batch spans, scheduling-decision instants
	// and request lifecycle spans on the shared timeline.
	TL *timeline.Recorder
	// batchStart is when the in-flight batch formed, for its span.
	batchStart sim.Time
	// layer is the in-flight batch's kernel list for one decoder layer,
	// built from the seqLens/histLens scratch when the batch forms: the
	// batch stays fixed until it finishes or aborts, and every cycle
	// launches the list once per layer of its group.
	layer             []gpusim.Kernel
	seqLens, histLens []int
	// Snapshot scratch that status fills in place, so a scheduling cycle
	// does not allocate; a snapshot is valid until the next one.
	arrivals    []sim.Time
	inputTokens []int
	weights     []float64
	queued      []sched.WaitingReq
}

// NewPrefillEngine wires a prefill engine. Call SetDecode before use.
func NewPrefillEngine(env *serving.Env, res *resource.Manager, schd *sched.Scheduler,
	est *estimator.Estimator, buf *Buffer, cfg PrefillConfig) *PrefillEngine {
	if cfg.LayerGroup <= 0 || cfg.MaxBatchReqs <= 0 || cfg.MaxBatchTokens <= 0 {
		panic(fmt.Sprintf("engine: invalid prefill config %+v", cfg))
	}
	p := &PrefillEngine{env: env, res: res, schd: schd, est: est, buf: buf, cfg: cfg}
	buf.RegisterPrefill(p.status)
	return p
}

// SetDecode connects the downstream decode engine.
func (p *PrefillEngine) SetDecode(d *DecodeEngine) { p.dec = d }

// SetPrefixCache enables shared-prefix reuse: admissions consult the
// cache, prefilling only the uncached tail of each prompt.
func (p *PrefillEngine) SetPrefixCache(c *prefixcache.Cache) { p.prefix = c }

// Submit enqueues an arriving request. Batch formation is deferred by one
// (zero-delay) event so that requests arriving at the same instant can
// join the same prefill batch.
func (p *PrefillEngine) Submit(r workload.Request) {
	p.waiting = append(p.waiting, &Req{W: r, Class: qos.ClassOf(r.Tenant)})
	if p.startPending {
		return
	}
	p.startPending = true
	p.env.Sim.PostAfter(0, func() {
		p.startPending = false
		p.tryStart()
	})
}

// QueueDepth returns the number of requests waiting for prefill.
func (p *PrefillEngine) QueueDepth() int { return len(p.waiting) }

// Running reports whether a prefill batch is in flight.
func (p *PrefillEngine) Running() bool { return p.running }

// Stall hangs the engine's scheduling cycle for d of virtual time: no
// new layer group or batch launches until the stall expires. Kernels
// already on the GPU keep running.
func (p *PrefillEngine) Stall(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("engine: negative prefill stall %v", d))
	}
	until := p.env.Sim.Now() + d
	if until > p.stalledUntil {
		p.stalledUntil = until
	}
}

// Stalled reports whether a stall is currently in force.
func (p *PrefillEngine) Stalled() bool { return p.env.Sim.Now() < p.stalledUntil }

// Epoch returns the abort fence: it increments on every AbortBatch, so a
// watchdog can detect whether the batch it armed against is still the
// one in flight.
func (p *PrefillEngine) Epoch() int { return p.epoch }

// Aborts returns how many batches were watchdog-aborted.
func (p *PrefillEngine) Aborts() int { return p.aborts }

// AbortBatch cancels the in-flight batch: its KV reservations are freed,
// prefix pins released, and per-request progress rewound so the requests
// can be prefilled again from scratch (each records one more retry). It
// returns the aborted requests (nil when idle) and clears any pending
// stall — the restart is the recovery action. Kernels already launched
// keep occupying the GPU until they drain; the epoch fence discards
// their completion callbacks.
func (p *PrefillEngine) AbortBatch() []*Req {
	if !p.running {
		return nil
	}
	p.epoch++
	p.aborts++
	aborted := p.batch
	if p.TL != nil {
		p.TL.Instant("prefill", "abort", p.env.Sim.Now(),
			timeline.I("reqs", len(aborted)),
			timeline.I("epoch", p.epoch))
	}
	for _, r := range aborted {
		r.ReleasePrefix()
		p.env.KV.MustFree(r.Seq)
		r.Seq = nil
		r.PrefillStart = 0
		r.FirstToken = 0
		r.Generated = 0
		r.PrefixHit = 0
		r.Retries++
	}
	p.batch = nil
	p.batchTokens = 0
	p.layersDone = 0
	p.running = false
	p.stalledUntil = 0
	p.buf.PublishKVRelease()
	return aborted
}

// ExtractWaiting drains and returns the waiting queue in order. Waiting
// requests hold no KV and have not started prefill, so they can be
// handed to another instance verbatim — the graceful-drain path
// (DESIGN.md §16) uses this to evacuate a replica without losing work.
func (p *PrefillEngine) ExtractWaiting() []workload.Request {
	if len(p.waiting) == 0 {
		return nil
	}
	out := make([]workload.Request, len(p.waiting))
	for i, r := range p.waiting {
		out[i] = r.W
	}
	p.waiting = p.waiting[:0]
	return out
}

// Requeue returns aborted requests to the head of the waiting queue
// (they already spent their deadline budget) and schedules a restart.
func (p *PrefillEngine) Requeue(reqs []*Req) {
	if len(reqs) == 0 {
		return
	}
	p.waiting = append(append([]*Req(nil), reqs...), p.waiting...)
	if p.startPending {
		return
	}
	p.startPending = true
	p.env.Sim.PostAfter(0, func() {
		p.startPending = false
		p.tryStart()
	})
}

// status is the buffer's prefill state provider. It fills the engine's
// snapshot scratch.
//
//bullet:hotpath
func (p *PrefillEngine) status() (sched.PrefillStatus, []sched.WaitingReq) {
	ps := sched.PrefillStatus{}
	if p.running {
		ps.Active = true
		ps.Tokens = p.batchTokens
		ps.LayersDone = p.layersDone
		ps.Arrivals, ps.InputTokens, ps.Weights = p.arrivals[:0], p.inputTokens[:0], p.weights[:0]
		for _, r := range p.batch {
			ps.Arrivals = append(ps.Arrivals, r.W.Arrival)
			ps.InputTokens = append(ps.InputTokens, r.W.InputTokens)
			if p.QoS != nil {
				ps.Weights = append(ps.Weights, p.QoS.WeightOf(r.Class))
			}
			if r.PrefillStart > ps.StartTime {
				ps.StartTime = r.PrefillStart
			}
		}
		p.arrivals, p.inputTokens, p.weights = ps.Arrivals, ps.InputTokens, ps.Weights
	}
	ws := p.queued[:0]
	for _, r := range p.waiting {
		ws = append(ws, p.waitingReq(r))
	}
	p.queued = ws
	return ps, ws
}

// waitingReq is r as the scheduler sees it, with its QoS weight.
func (p *PrefillEngine) waitingReq(r *Req) sched.WaitingReq {
	w := sched.WaitingReq{Arrival: r.W.Arrival, InputTokens: r.W.InputTokens}
	if p.QoS != nil {
		w.Weight = p.QoS.WeightOf(r.Class)
	}
	return w
}

// sortWaiting reorders the pending queue by SLO deadline, earliest first,
// the scheduler's key (Algorithm 1 line 7). With QoS the deadline is
// weighted: lower classes get their budget stretched, so under contention
// premium requests sort ahead. The sort is a stable insertion sort in
// place: the queue arrives mostly sorted, and a stable sort's order is
// unique, so it matches any other stable sort for keys that are not NaN.
//
//bullet:hotpath
func (p *PrefillEngine) sortWaiting() {
	slo := p.schd.SLO()
	ws := p.waiting
	for i := 1; i < len(ws); i++ {
		r := ws[i]
		d := p.waitingReq(r).Deadline(slo)
		j := i - 1
		for j >= 0 && d < p.waitingReq(ws[j]).Deadline(slo) {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = r
	}
}

// tryStart forms and launches the next prefill batch if idle.
func (p *PrefillEngine) tryStart() {
	if p.running || len(p.waiting) == 0 {
		return
	}
	if wait := p.stalledUntil - p.env.Sim.Now(); wait > 0 {
		ep := p.epoch
		p.env.Sim.PostAfter(wait, func() {
			if p.epoch == ep {
				p.tryStart()
			}
		})
		return
	}
	if p.cfg.Reorder {
		p.sortWaiting()
	}
	now := p.env.Sim.Now()
	slo := p.schd.SLO()
	// The controller's live chunk budget caps the batch below the static
	// maximum while the feedback loop is backing off.
	maxBatchTokens := p.cfg.MaxBatchTokens
	if p.QoS != nil {
		if b := p.QoS.PrefillTokenBudget(); b < maxBatchTokens {
			maxBatchTokens = b
		}
	}
	for len(p.waiting) > 0 && len(p.batch) < p.cfg.MaxBatchReqs {
		r := p.waiting[0]
		if len(p.batch) > 0 && p.batchTokens+r.W.InputTokens > maxBatchTokens {
			break
		}
		if p.cfg.SLOAdmission && len(p.batch) > 0 {
			// Batched requests all finish at the batch's completion;
			// do not grow the batch past any member's deadline.
			grown := p.est.PrefillTotalTime(p.batchTokens+r.W.InputTokens,
				p.res.NumSMs(), true)
			violates := false
			for _, member := range append(p.batch, r) {
				budget := units.FromMs(slo.NormTTFTMs * float64(member.W.InputTokens))
				if p.QoS != nil {
					budget = units.Over(budget, p.QoS.WeightOf(member.Class))
				}
				if (now-member.W.Arrival)+grown > budget {
					violates = true
					break
				}
			}
			if violates {
				break
			}
		}
		// Shared-prefix lookup: a hit shrinks the computed prefill to
		// the uncached tail (the cached part is pinned until the
		// request finishes, because decode attention keeps reading it).
		if p.prefix != nil && r.PrefixRelease == nil {
			hit, release := p.prefix.Acquire(r.W.PrefixGroup)
			if hit >= r.W.InputTokens {
				hit = r.W.InputTokens - 1 // always compute ≥1 token
			}
			r.PrefixHit = hit
			r.PrefixRelease = release
		}
		// Reserve KV for the whole lifetime (uncached input + output) so
		// decode can never be preempted by cache exhaustion; admission
		// blocks here instead (or, with a pressure gate, defers/sheds).
		need := r.NewTokens() + r.W.OutputTokens
		if p.Gate != nil {
			prio := pressure.PrioPremium
			if p.QoS != nil {
				prio = r.Class.Prio()
			}
			tier := p.Gate.AdmitPrio(now, r.W.ID, need, r.Deferrals, prio)
			if tier == pressure.TierShed {
				p.waiting = p.waiting[1:]
				r.ReleasePrefix()
				p.env.Shed(r.W)
				continue
			}
			if tier == pressure.TierDefer {
				r.Deferrals++
				// Every queued request behind the head is blocked by the
				// same pressure: charge them the deferral round too, so
				// the halved class budgets burn at one cadence and shed
				// best-effort strictly first regardless of queue position.
				if p.QoS != nil {
					p.chargeWaiting(now)
				}
				// Arm the retry before raising pressure: the relief path
				// frees KV synchronously and its release publication must
				// find the waiter already registered.
				if len(p.batch) == 0 {
					p.armKVWait(r.Deferrals)
				}
				// Preempt decode only when waiting cannot help: the
				// request cannot physically fit (shrink drain debt, or a
				// giant allocation). Watermark deferrals above that line
				// resolve through ordinary decode completions.
				if p.OnPressure != nil {
					if deficit := p.Gate.PhysicalDeficit(need); deficit > 0 {
						p.OnPressure(deficit, r.W.Arrival)
					}
				}
				break
			}
		} else if !p.env.KV.CanAllocate(need) {
			if len(p.batch) == 0 && !p.waitingOnKV {
				p.waitingOnKV = true
				p.buf.OnKVRelease(func() {
					p.waitingOnKV = false
					p.tryStart()
				})
			}
			break
		}
		seq, err := p.env.KV.Allocate(r.W.ID, need, "prefill")
		if err != nil {
			break
		}
		r.Seq = seq
		r.PrefillStart = now
		r.CloseTrail(now) // seal an open preempted span (recompute path)
		p.batch = append(p.batch, r)
		p.batchTokens += r.NewTokens()
		p.waiting = p.waiting[1:]
	}
	if len(p.batch) == 0 {
		return
	}
	p.running = true
	p.layersDone = 0
	p.batchStart = now
	p.seqLens, p.histLens = p.seqLens[:0], p.histLens[:0]
	for _, r := range p.batch {
		p.seqLens = append(p.seqLens, r.NewTokens())
		p.histLens = append(p.histLens, r.PrefixHit)
	}
	p.layer = p.env.Model.AppendLayerKernels(p.layer[:0], p.seqLens, p.histLens, 0, 0, "prefill")
	if p.TL != nil {
		p.TL.Instant("prefill", "batch-start", now,
			timeline.I("tokens", p.batchTokens),
			timeline.I("reqs", len(p.batch)),
			timeline.I("waiting", len(p.waiting)))
	}
	p.cycle()
}

// chargeWaiting charges one deferral round to every queued request
// behind the deferred head and retires those whose class budget is
// exhausted. Only runs with QoS enabled — the priority-unaware gate
// charges (and sheds) the head alone, as it always did.
func (p *PrefillEngine) chargeWaiting(now units.Seconds) {
	kept := p.waiting[:1]
	for _, r := range p.waiting[1:] {
		r.Deferrals++
		if r.Deferrals >= p.Gate.DeferBudget(r.Class.Prio()) {
			p.Gate.RecordShed(now, r.W.ID, "defer-budget")
			r.ReleasePrefix()
			p.env.Shed(r.W)
			continue
		}
		kept = append(kept, r)
	}
	p.waiting = kept
}

// armKVWait arms the head-of-queue retry for a gate deferral with an
// empty batch: once on the next KV release, and once on a backoff timer
// so a deferral with no release in flight still re-evaluates (and, via
// the deferral budget, eventually sheds instead of wedging).
func (p *PrefillEngine) armKVWait(attempt int) {
	if !p.waitingOnKV {
		p.waitingOnKV = true
		p.buf.OnKVRelease(func() {
			p.waitingOnKV = false
			p.tryStart()
		})
	}
	ep := p.epoch
	p.env.Sim.PostAfter(p.Gate.Backoff(attempt), func() {
		if p.epoch == ep {
			p.tryStart()
		}
	})
}

// decide runs one scheduling cycle and applies the ablation overrides.
func (p *PrefillEngine) decide() sched.Decision {
	st := p.buf.Snapshot()
	d := p.schd.Decide(st)
	if !p.cfg.DynamicSM {
		d.PrefillSMs = p.cfg.FixedSMs
		_, dm := p.buf.Allocation()
		if dm > 0 {
			d.DecodeSMs = dm
		}
		d.PauseDecode = false
	}
	p.buf.SetAllocation(d.PrefillSMs, d.DecodeSMs)
	if p.TL != nil {
		emitDecision(p.TL, st, d)
	}
	return d
}

// cycle launches one layer group and schedules the next cycle at its
// completion (the sync point that gives real-time progress perception).
func (p *PrefillEngine) cycle() {
	if !p.running {
		return
	}
	if wait := p.stalledUntil - p.env.Sim.Now(); wait > 0 {
		ep := p.epoch
		p.env.Sim.PostAfter(wait, func() {
			if p.epoch == ep && p.running {
				p.cycle()
			}
		})
		return
	}
	d := p.decide()
	stream := p.res.Stream(resource.Prefill, d.PrefillSMs)
	pm := stream.Mask().Count()

	group := p.cfg.LayerGroup
	if left := p.env.Model.NumLayers - p.layersDone; group > left {
		group = left
	}
	colocated := p.dec != nil && p.dec.BatchSize() > 0
	predicted := units.Scale(p.est.PrefillLayerTime(p.batchTokens, pm, colocated), float64(group))
	start := p.env.Sim.Now()
	for l := 0; l < group; l++ {
		for _, k := range p.layer {
			p.env.GPU.Launch(stream, k, nil)
		}
	}
	ep := p.epoch
	p.env.GPU.Synchronize(stream, func() {
		if p.epoch != ep {
			return // batch aborted while its kernels drained
		}
		pred := units.Over(predicted, float64(group))
		actual := units.Over(p.env.Sim.Now()-start, float64(group))
		p.est.ObservePrefill(pred, actual)
		if p.TL != nil {
			p.TL.Instant("estimator", "prefill", p.env.Sim.Now(),
				timeline.F("predicted", pred.Float()),
				timeline.F("actual", actual.Float()))
		}
		p.layersDone += group
		p.buf.PublishPrefillProgress()
		if p.layersDone >= p.env.Model.NumLayers {
			p.finishBatch(stream)
			return
		}
		p.env.Sim.PostAfter(prefillCycleOverhead, func() {
			if p.epoch == ep {
				p.cycle()
			}
		})
	})
}

// finishBatch runs the LM head, emits first tokens, and migrates requests
// to the decode engine through the metadata buffer (copy-free: the KV
// sequences merely change owner).
func (p *PrefillEngine) finishBatch(stream *gpusim.Stream) {
	head := p.env.Model.LMHeadKernel(len(p.batch), "prefill")
	p.env.GPU.Launch(stream, head, nil)
	ep := p.epoch
	p.env.GPU.Synchronize(stream, func() {
		if p.epoch != ep {
			return // batch aborted while the LM head drained
		}
		now := p.env.Sim.Now()
		if p.TL != nil {
			p.TL.Span("prefill", "batch", p.batchStart, now,
				timeline.I("tokens", p.batchTokens),
				timeline.I("reqs", len(p.batch)))
		}
		var migrate []*Req
		for _, r := range p.batch {
			r.FirstToken = now
			r.Generated = 1
			if p.QoS != nil {
				// Per-class token conservation: every computed prefill
				// token lands in exactly one class bucket.
				p.QoS.AddPrefill(r.Class, r.NewTokens())
			}
			// A freshly computed shared prefix becomes reusable for
			// later requests of the same group.
			if p.prefix != nil && r.W.PrefixGroup != "" && r.PrefixHit == 0 {
				p.prefix.Insert(r.W.PrefixGroup, r.W.PrefixTokens)
			}
			if r.Generated >= r.W.OutputTokens {
				r.Finish = now
				r.ReleasePrefix()
				p.env.KV.MustFree(r.Seq)
				r.EmitLifecycle(p.TL)
				p.env.Complete(r.Record())
				p.buf.PublishKVRelease()
				continue
			}
			r.Seq.Transfer("decode")
			migrate = append(migrate, r)
		}
		p.batch = nil
		p.batchTokens = 0
		p.running = false
		if p.dec == nil && len(migrate) > 0 {
			panic("engine: no decode engine attached")
		}
		p.buf.Handoff(migrate, p.dec.Accept)
		p.env.Sim.PostAfter(prefillCycleOverhead, p.tryStart)
	})
}
