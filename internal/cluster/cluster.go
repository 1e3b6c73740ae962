// Package cluster scales a serving system horizontally: a router
// dispatches requests across N single-GPU replicas. It exercises the
// deployment question the paper's related-work section raises — whether
// to scale out with more whole-GPU instances or to squeeze more out of
// each GPU with spatial-temporal orchestration — and lets both answers
// compose (a cluster of Bullet instances).
//
// # Parallel-deterministic replica advancement
//
// Each replica owns a private sim.Simulation; the router's outer clock
// carries only the decision points (arrivals, fault events, recoveries,
// and a drain pump). Replicas interact with each other exclusively
// through the router, so between two consecutive decision points every
// replica can advance independently — the Revati-style conservative
// window. Advancement runs through the internal/forkjoin harness:
//
//   - only the replicas with an event due in the window fork, one task
//     each (index-addressed, no shared writes — machine-checked by
//     bulletlint's replicaisolation analyzer); the others just move
//     their clocks to the window's end;
//   - completions and sheds produced inside the window are buffered in
//     the owning replica's outbox, never pushed to shared state;
//   - at the join, outboxes merge in deterministic (time, replica slot,
//     intra-replica order) order before touching router state.
//
// A window ends at the next outer event, and the pump makes every
// replica event an outer event, so a window almost always has one
// replica due and runs it inline on the router's goroutine; a parallel
// speed-up needs a wider window (ROADMAP item 2).
//
// The output is therefore a pure function of (trace, seed, config):
// byte-identical whether replicas advance serially or on GOMAXPROCS
// workers, which the -workers 4 rows of cmd/bulletsim's TestGolden pin
// against the serial goldens and cluster_test.go pins per worker count
// under -race, with twin arrivals for windows that really fork.
// Attaching a timeline recorder forces serial advancement so the shared
// trace keeps one deterministic event order.
//
// # One flight per request
//
// The router keeps one record per placed request, its flight: the
// replicas running a copy (the first placement plus any hedges), each
// charged the request's input tokens as load. The merge delivers the
// first member outcome, swallows outcomes from non-members as stale, and
// dissolves the flight at its last member's outcome. A crash, a drain
// handoff and a dispatch timeout all leave through one failover, which
// re-submits the request only when no copy survives and no outcome was
// delivered, so every request completes or is shed exactly once. The
// router counts its retries, repairs, rate-limit sheds, drains, handoffs
// and link faults straight into one metrics.Resilience ledger.
package cluster

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forkjoin"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Policy selects how the router places requests.
type Policy string

const (
	// RoundRobin cycles through replicas.
	RoundRobin Policy = "round-robin"
	// LeastLoaded routes to the replica with the fewest in-flight
	// tokens (queued + executing input tokens plus decode batch).
	LeastLoaded Policy = "least-loaded"
	// JoinShortestQueue routes to the replica with the fewest waiting
	// requests.
	JoinShortestQueue Policy = "jsq"
)

// Config shapes the cluster.
type Config struct {
	Replicas int
	Policy   Policy
	// Options configure each replica's Bullet instance.
	Options core.Options
	// Workers bounds the fork/join parallelism of replica advancement:
	// 0 uses the forkjoin default (GOMAXPROCS, capped), 1 forces the
	// serial path. By the isolation contract the value never changes
	// results, only wall-clock time.
	Workers int
	// Resilience arms the router-tier protections of DESIGN.md §16
	// (circuit breakers, dispatch timeouts, hedged re-dispatch, token
	// buckets, graceful drains). Nil leaves the router naive: link
	// faults, blips, and drains attached through AttachFaults still
	// apply, but nothing mitigates them — the control arm of ext-chaos.
	Resilience *resilience.Config
}

// DefaultConfig returns a two-replica least-loaded Bullet cluster.
func DefaultConfig() Config {
	return Config{Replicas: 2, Policy: LeastLoaded, Options: core.Options{Mode: core.ModeFull}}
}

// outcome is one completion or shed buffered in a replica's outbox while
// the replica advances inside a fork/join window.
type outcome struct {
	at     sim.Time // replica virtual time at delivery
	done   metrics.Request
	shed   workload.Request
	isShed bool
}

// replica is one Bullet instance on its own device, advancing on its own
// private simulation clock.
type replica struct {
	env    *serving.Env
	sys    *core.Bullet
	slot   int // index in Cluster.replicas, stable across restarts
	tokens int // input tokens of the flights it is a member of, LeastLoaded's load
	// down marks a crashed replica: the router stops picking it and its
	// late completions are swallowed as stale.
	down bool
	// draining marks a replica mid graceful drain (DESIGN.md §16): it
	// stops admitting, finishes in-flight work, and readmits at the end
	// of the drain window.
	draining bool
	// linkLost / linkDelay model the router→replica link state under
	// KindLinkDegrade: lost links black-hole dispatches into held,
	// degraded links deliver them linkDelay late. linkGen fences
	// restore callbacks against overlapping link faults and crashes.
	linkLost  bool
	linkDelay sim.Time
	linkGen   int
	// held buffers dispatches parked on a faulty link, keyed off by
	// request ID; delivery, dispatch timeout, and link restoration race
	// deterministically through removeHeld. Each entry carries whether
	// the slot's breaker admitted it (resilience.go).
	held []heldDispatch
	// outbox buffers completions and sheds produced while this replica
	// advances inside a fork/join window; the router drains it at the
	// join in deterministic merge order. Only this replica's own event
	// loop appends to it — the isolation the replicaisolation analyzer
	// enforces at fork sites.
	outbox []outcome
}

// advance runs this replica's private simulation up to horizon t,
// buffering every completion and shed into the outbox. It touches no
// state outside the replica, so the cluster may advance all replicas
// concurrently.
func (r *replica) advance(t sim.Time) {
	r.env.Sim.Run(t)
}

// Cluster implements serving.System over N replicas.
type Cluster struct {
	outer    *serving.Env
	cfg      Config
	replicas []*replica
	next     int
	// flights holds one record per placed request, keyed by request ID:
	// the replicas running it and whether its outcome was delivered
	// (resilience.go).
	flights map[string]*flight

	// pump is the outer-clock event that re-advances replicas between
	// router decision points, scheduled at the earliest pending replica
	// event so replica progress keeps flowing into the outer run loop.
	// New makes it once; schedulePump schedules or cancels it.
	pump *sim.Event

	// wcfg is non-nil once AttachFaults armed resilience; restarted
	// replicas inherit it.
	wcfg *core.WatchdogConfig
	// deferred holds arrivals that found every replica down; they flush
	// at the next recovery.
	deferred []workload.Request

	// armed is the mitigation config of DESIGN.md §16 with defaults
	// applied, nil when Config.Resilience was nil. The breakers, buckets
	// and hedger exist only when it is set.
	armed *resilience.Config
	// breakers guard replica slots (not instances), so a restarted
	// replica inherits its slot's failure history.
	breakers []*resilience.Breaker
	// buckets meter admissions per QoS class; all nil when BucketRate
	// is zero.
	buckets [qos.NumClasses]*resilience.Bucket
	hedger  *resilience.Hedger

	// blipUntil / blipHeld implement router blips: arrivals during a
	// blip park here and flush when the last overlapping blip ends.
	// Each entry keeps the admission flag it arrived with so the flush
	// replays it verbatim — a re-dispatch parked mid-blip was already
	// charged to its bucket and must not be charged twice.
	blipUntil sim.Time
	blipHeld  []blipArrival

	crashes  int
	stale    int
	timeouts int
	// ledger counts the router's own recovery accounting as it happens:
	// failover retries, the repairs it completes (restarts, link
	// restorations, blip flushes, drain readmissions) with their
	// attributed time, rate-limit sheds, drains, handoffs and link
	// faults.
	ledger metrics.Resilience
	// retired holds the watchdog accounting of the crashed instances
	// that restarts replaced, so Resilience still counts the repairs
	// they did.
	retired metrics.Resilience
	// qos is the cluster's per-class QoS accounting apart from the live
	// instances' token buckets: the outcomes the router delivered or
	// shed (Completed, Shed) and the tokens of replaced instances.
	qos qos.Accounting

	// tl is the root recorder attached by AttachTimeline; each replica
	// records through a per-replica scoped view of it. Non-nil forces
	// serial advancement so the shared trace stays deterministically
	// ordered.
	tl *timeline.Recorder

	// merge is the outbox-merge scratch, resliced to zero length on every
	// window so steady-state merges stay allocation-free.
	merge []outboxKey
	// due is advanceTo's scratch: the replicas with an event at or
	// before the horizon, the only ones a window forks.
	due []*replica
}

// New builds the cluster on an outer environment. The outer env's own GPU
// and KV pool are unused (replicas own their devices); it provides the
// router clock, SLO, and completion collection. New takes over the outer
// env's OnDrain hook, so Env.Run ends by quiescing the replicas and
// running CheckDrained.
func New(outer *serving.Env, cfg Config) *Cluster {
	if cfg.Replicas <= 0 {
		panic(fmt.Sprintf("cluster: invalid replica count %d", cfg.Replicas))
	}
	if cfg.Workers < 0 {
		panic(fmt.Sprintf("cluster: invalid worker count %d", cfg.Workers))
	}
	switch cfg.Policy {
	case RoundRobin, LeastLoaded, JoinShortestQueue:
	default:
		panic(fmt.Sprintf("cluster: unknown policy %q", cfg.Policy))
	}
	c := &Cluster{outer: outer, cfg: cfg, flights: map[string]*flight{}}
	c.pump = sim.NewEvent(c.onPump)
	if cfg.Resilience != nil {
		rcfg := cfg.Resilience.WithDefaults()
		c.armed = &rcfg
		for i := 0; i < cfg.Replicas; i++ {
			c.breakers = append(c.breakers, resilience.NewBreaker(rcfg.Breaker))
		}
		if rcfg.BucketRate > 0 {
			for cl := 0; cl < qos.NumClasses; cl++ {
				c.buckets[cl] = resilience.NewBucket(resilience.BucketConfig{
					Rate:  rcfg.BucketRate * bucketShare[cl],
					Burst: rcfg.BucketBurst * bucketShare[cl],
				})
			}
		}
		c.hedger = resilience.NewHedger(rcfg.Hedge)
	}
	for i := 0; i < cfg.Replicas; i++ {
		c.replicas = append(c.replicas, c.newReplica(i))
	}
	outer.OnDrain = func() {
		c.Quiesce()
		c.CheckDrained()
	}
	return c
}

// newReplica builds one replica: a fresh device and KV pool on a fresh
// private clock fast-forwarded to the router's current time. Completions
// and sheds are buffered into the replica-local outbox; flight
// settlement and router accounting happen at the deterministic merge,
// not here.
func (c *Cluster) newReplica(idx int) *replica {
	env := serving.NewEnv(c.outer.GPU.Spec, c.outer.Model, "")
	env.Sim.Run(c.outer.Sim.Now())
	env.SLO = c.outer.SLO
	r := &replica{env: env, slot: idx}
	env.OnComplete = func(m metrics.Request) {
		r.outbox = append(r.outbox, outcome{at: env.Sim.Now(), done: m})
	}
	env.OnShed = func(w workload.Request) {
		r.outbox = append(r.outbox, outcome{at: env.Sim.Now(), shed: w, isShed: true})
	}
	opts := c.cfg.Options
	if opts.Backend == gpusim.BackendSampled {
		// Decorrelate the replicas' sampled-latency draw streams the
		// forkjoin way: a per-replica splitmix fork of the base seed,
		// identical whether replicas advance serially or in parallel.
		seed := opts.BackendSeed
		if seed == 0 {
			seed = 1
		}
		opts.BackendSeed = forkjoin.ForkSeed(seed, idx)
	}
	r.sys = core.New(env, opts)
	if c.wcfg != nil {
		r.sys.EnableResilience(*c.wcfg)
	}
	// A nil recorder scopes to nil, so the disabled fast path propagates.
	r.sys.AttachTimeline(c.tl.Scoped(fmt.Sprintf("replica%d", idx)))
	return r
}

// AttachTimeline threads a recorder through the cluster: each replica
// (including ones restarted after a crash) records through a scoped view
// tagged with its slot, and router-level crash/recovery instants land on
// the root "cluster" lane. A shared trace needs one deterministic event
// order, so attaching a recorder forces serial replica advancement.
func (c *Cluster) AttachTimeline(rec *timeline.Recorder) {
	c.tl = rec
	for i, r := range c.replicas {
		r.sys.AttachTimeline(rec.Scoped(fmt.Sprintf("replica%d", i)))
	}
}

// Name implements serving.System.
func (c *Cluster) Name() string {
	return fmt.Sprintf("cluster-%dx-%s", c.cfg.Replicas, c.cfg.Policy)
}

// advanceWorkers returns the fork/join width for replica advancement:
// serial with a timeline attached (one trace needs one order), the
// configured bound otherwise (0 = forkjoin default).
func (c *Cluster) advanceWorkers() int {
	if c.tl != nil {
		return 1
	}
	return c.cfg.Workers
}

// advanceTo brings every private clock to horizon t, then merges the
// buffered outcomes in deterministic order. Only the replicas with an
// event at or before t have work to do, so only they fork, one task
// each; every other replica just moves its clock to t on the calling
// goroutine, a Run that finds nothing due. Each replica still fires the
// same events in the same order, so the outcomes and their merge are
// those of advancing every replica. This is the only place replica state
// crosses back into router state.
//
//bullet:hotpath
func (c *Cluster) advanceTo(t sim.Time) {
	due := c.due[:0]
	for _, r := range c.replicas {
		if at, ok := r.env.Sim.NextAt(); ok && at <= t {
			due = append(due, r)
		} else {
			r.advance(t)
		}
	}
	c.due = due
	//lint:ignore hotalloc replicaisolation checks the task only as a literal at the fork site: one closure per decision
	forkjoin.Do(len(due), c.advanceWorkers(), func(i int) {
		due[i].advance(t)
	})
	c.mergeOutboxes()
}

// outboxKey orders one buffered outcome during a merge: (at, slot, pos)
// is unique per outcome, so any comparison sort yields the same total
// order.
type outboxKey struct {
	at   sim.Time
	slot int
	pos  int
}

// outboxKeyLess is the merge ordering: time, then replica slot, then
// intra-replica buffer order. A top-level function rather than a closure
// so sorting captures nothing.
func outboxKeyLess(a, b outboxKey) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	return a.pos < b.pos
}

// mergeOutboxes drains every replica outbox into the outer environment
// in (time, replica slot, intra-replica order) order — a total order
// independent of fork/join scheduling, so serial and parallel
// advancement produce byte-identical results. Keys are collected into a
// cluster-held scratch slice and insertion-sorted in place: windows are
// short, so outboxes hold at most a handful of outcomes and the merge
// must not allocate per window.
//
//bullet:hotpath
func (c *Cluster) mergeOutboxes() {
	items := c.merge[:0]
	for si, r := range c.replicas {
		for pi, o := range r.outbox {
			//lint:ignore hotalloc scratch growth is amortized; steady state reuses reserved capacity
			items = append(items, outboxKey{at: o.at, slot: si, pos: pi})
		}
	}
	c.merge = items
	if len(items) == 0 {
		return
	}
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && outboxKeyLess(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	for _, it := range items {
		c.applyOutcome(c.replicas[it.slot], c.replicas[it.slot].outbox[it.pos])
	}
	for _, r := range c.replicas {
		r.outbox = r.outbox[:0]
	}
}

// applyOutcome settles one buffered completion or shed against the
// request's flight. An outcome from a replica that is not a member — it
// lost the request to a crash and reported late — or for a request with
// no flight is stale and swallowed. The first member outcome flows to
// the outer environment; every member outcome releases its replica's
// load, and the last one dissolves the flight.
func (c *Cluster) applyOutcome(r *replica, o outcome) {
	id := o.done.ID
	if o.isShed {
		id = o.shed.ID
	}
	fl, ok := c.flights[id]
	if !ok || !fl.leave(r) {
		c.stale++
		return
	}
	if !fl.won {
		fl.won = true
		if r != fl.primary {
			c.hedger.NoteWin()
		}
		c.deliver(o)
	}
	if len(fl.reps) == 0 {
		delete(c.flights, id)
	}
}

// deliver hands a settled outcome to the outer environment.
func (c *Cluster) deliver(o outcome) {
	if o.isShed {
		c.countOutcome(&c.qos.Shed, o.shed.Tenant)
		c.outer.Shed(o.shed)
	} else {
		c.countOutcome(&c.qos.Completed, o.done.Tenant)
		c.outer.Complete(o.done)
	}
}

// countOutcome counts one outcome the router hands to the outer
// environment in tenant's class, when the replicas run QoS.
func (c *Cluster) countOutcome(perClass *[qos.NumClasses]int, tenant string) {
	if c.cfg.Options.QoS {
		perClass[qos.ClassOf(tenant)]++
	}
}

// decide runs fn as a router decision point. Every outer-clock entry
// point goes through it — Submit, the pump, the fault handlers and the
// router timers — so every decision sees the replicas at now: they first
// advance to the outer clock (merging every outcome up to and including
// this instant), then fn decides, then the pump is scheduled at the
// earliest pending replica event.
func (c *Cluster) decide(fn func()) {
	c.advanceTo(c.outer.Sim.Now())
	fn()
	c.schedulePump()
}

// after schedules fn as a router decision point d from now.
func (c *Cluster) after(d sim.Time, fn func()) {
	c.outer.Sim.PostAfter(d, func() { c.decide(fn) })
}

// schedulePump keeps the outer clock tethered to replica progress: one
// event at the earliest pending replica event. When it fires the
// replicas advance to that horizon (processing, in parallel, every
// replica event at it) and the pump is scheduled at the next one.
// Without pending replica events the pump stands down — the outer run
// loop then correctly treats an idle cluster with outstanding requests
// as a deadlock. Scheduling the pump takes the next outer sequence
// number whether it was pending or not, so its place among simultaneous
// outer events does not depend on which.
//
//bullet:hotpath
func (c *Cluster) schedulePump() {
	var at sim.Time
	found := false
	for _, r := range c.replicas {
		if t, ok := r.env.Sim.NextAt(); ok && (!found || t < at) {
			at, found = t, true
		}
	}
	if found {
		c.outer.Sim.Schedule(c.pump, at)
	} else {
		c.outer.Sim.Cancel(c.pump)
	}
}

// onPump is a router decision point with no decision: the wrapper alone
// advances replicas to the outer clock and schedules the pump again.
func (c *Cluster) onPump() {
	c.decide(func() {})
}

// Submit implements serving.System. Every submission is a router
// decision point: replicas first catch up to the arrival instant (so
// load accounting reflects everything that completed before it), then
// the policy places the request. Arrivals that find every replica down
// are deferred and flushed at the next recovery.
func (c *Cluster) Submit(r workload.Request) {
	c.decide(func() { c.submit(r, true) })
}

// pickWhere runs the routing policy over the replicas that satisfy ok,
// nil when none do. RoundRobin advances the cursor past rejected
// candidates, matching the health-aware legacy behavior.
func (c *Cluster) pickWhere(ok func(*replica) bool) *replica {
	switch c.cfg.Policy {
	case RoundRobin:
		for i := 0; i < len(c.replicas); i++ {
			rep := c.replicas[c.next%len(c.replicas)]
			c.next++
			if ok(rep) {
				return rep
			}
		}
		return nil
	case JoinShortestQueue:
		var best *replica
		for _, rep := range c.replicas {
			if !ok(rep) {
				continue
			}
			if best == nil || rep.sys.Prefill.QueueDepth() < best.sys.Prefill.QueueDepth() {
				best = rep
			}
		}
		return best
	default: // LeastLoaded
		var best *replica
		for _, rep := range c.replicas {
			if !ok(rep) {
				continue
			}
			if best == nil || rep.tokens < best.tokens {
				best = rep
			}
		}
		return best
	}
}

// AttachFaults arms resilience on every replica and registers the
// cluster as the injector's handler for all fault kinds, each a router
// decision point: crashes are handled here, single-device faults are
// routed to the targeted replica.
func (c *Cluster) AttachFaults(inj *faults.Injector, wcfg core.WatchdogConfig) {
	if c.wcfg != nil {
		panic("cluster: faults attached twice")
	}
	c.wcfg = &wcfg
	for _, r := range c.replicas {
		r.sys.EnableResilience(wcfg)
	}
	handle := func(kind faults.Kind, h func(faults.Event)) {
		inj.Handle(kind, func(ev faults.Event) { c.decide(func() { h(ev) }) })
	}
	handle(faults.KindReplicaCrash, c.onReplicaCrash)
	handle(faults.KindSMDegrade, c.routeFault)
	handle(faults.KindEngineStall, c.routeFault)
	handle(faults.KindKVShrink, c.routeFault)
	handle(faults.KindLinkDegrade, c.onLinkFault)
	handle(faults.KindRouterBlip, c.onRouterBlip)
	handle(faults.KindReplicaDrain, c.onReplicaDrain)
}

// routeFault applies a single-device fault to the targeted replica.
// Faults aimed at a crashed replica are dropped — the machine is gone.
func (c *Cluster) routeFault(ev faults.Event) {
	rep := c.replicas[ev.Replica%len(c.replicas)]
	if !rep.down {
		rep.sys.ApplyFault(ev)
	}
}

// onReplicaCrash fails a replica: health-aware routing stops picking it,
// every flight it is a member of fails over (deterministically, in
// request-ID order), and after the recovery delay a fresh replica (new
// device, new KV pool, new private clock) takes its slot. The crashed
// instance keeps draining whatever was on its GPU until the readmission
// replaces it, but it is no longer a member of any flight — its late
// completions are swallowed as stale at the merge.
func (c *Cluster) onReplicaCrash(ev faults.Event) {
	idx := ev.Replica % len(c.replicas)
	rep := c.replicas[idx]
	if rep.down {
		return // already down; the machine cannot crash twice
	}
	rep.down = true
	c.crashes++
	// Collect and sort every flight ID before filtering for rep, so
	// failover runs in request-ID order whatever the map's order.
	lost := make([]string, 0, len(c.flights))
	for id := range c.flights {
		lost = append(lost, id)
	}
	slices.Sort(lost)
	lost = slices.DeleteFunc(lost, func(id string) bool { return !c.flights[id].has(rep) })
	if c.tl != nil {
		c.tl.Instant("cluster", "crash", c.outer.Sim.Now(),
			timeline.I("replica", idx),
			timeline.I("lost", len(lost)))
	}
	// Dispatches parked on the dead link fail over with their flights;
	// the generation bump no-ops their pending delivery, timeout, and
	// link-restore callbacks. Protected entries resolve their breaker
	// outcome as a failure — a half-open probe wiped by the crash would
	// otherwise never report and wedge the slot's breaker.
	for _, h := range rep.held {
		if h.protected {
			c.breakers[rep.slot].ReportFailure(c.outer.Sim.Now())
		}
	}
	rep.held = nil
	rep.linkGen++
	for _, id := range lost {
		if c.failover(rep, c.flights[id].req) {
			c.ledger.Retried++
		}
	}
	c.after(ev.Recovery, func() {
		old := c.replicas[idx]
		c.retired.Add(old.sys.Resilience())
		c.qos.Add(tokensOf(old))
		c.replicas[idx] = c.newReplica(idx)
		c.ledger.Recovered(ev.Recovery)
		if c.tl != nil {
			c.tl.Instant("cluster", "recovery", c.outer.Sim.Now(),
				timeline.I("replica", idx),
				timeline.I("deferred", len(c.deferred)))
		}
		c.flushDeferred()
	})
}

// flushDeferred re-submits the arrivals that found every replica
// unavailable. Flushes skip the admission bucket — the requests were
// already admitted and must not be charged twice.
func (c *Cluster) flushDeferred() {
	flush := c.deferred
	c.deferred = nil
	for _, w := range flush {
		c.submit(w, false)
	}
}

// Replicas returns the per-replica completed-request counts, for balance
// analysis.
func (c *Cluster) Replicas() []int {
	out := make([]int, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = len(r.env.Completed())
	}
	return out
}

// CheckDrained panics unless the run left nothing behind. The router
// must hold no flight, deferred or blip-held arrival; every replica no
// load token or parked dispatch. Every up replica's environment must
// then drain cleanly
// (serving.Env.Drain): its end-of-run hook runs and its KV pool checks
// out empty. Crashed replicas are exempt from the KV check only: a
// machine that died mid-run may hold KV for work it was draining when
// the run ended, but it owns none of that work. Env.Run calls this
// through the hook New installs; calling it again is harmless.
func (c *Cluster) CheckDrained() {
	if len(c.flights)+len(c.deferred)+len(c.blipHeld) != 0 {
		panic(fmt.Sprintf("cluster: router holds %d flights, %d deferred, %d blip-held requests",
			len(c.flights), len(c.deferred), len(c.blipHeld)))
	}
	for i, r := range c.replicas {
		if r.tokens != 0 || len(r.held) != 0 {
			panic(fmt.Sprintf("cluster: replica %d holds %d tokens, %d parked dispatches",
				i, r.tokens, len(r.held)))
		}
		if !r.down {
			r.env.Drain(fmt.Sprintf("%s replica %d", c.Name(), i))
		}
	}
}

// Crashes returns how many replica-crash events were applied.
func (c *Cluster) Crashes() int { return c.crashes }

// StaleCompletions returns how many late completions from crashed
// replicas were swallowed as stale.
func (c *Cluster) StaleCompletions() int { return c.stale }

// Resilience aggregates recovery accounting across the cluster: the
// router's ledger, its breakers and hedger, plus the local watchdog
// counters of every replica instance, current or replaced after a
// crash. The caller owns injector-level counters (FaultsInjected,
// Downtime).
func (c *Cluster) Resilience() metrics.Resilience {
	out := c.ledger
	for _, b := range c.breakers {
		out.BreakerOpens += b.Opens()
		out.BreakerCloses += b.Closes()
	}
	if c.hedger != nil {
		out.Hedges = c.hedger.Hedges()
		out.HedgeWins = c.hedger.Wins()
	}
	for _, r := range c.replicas {
		out.Add(r.sys.Resilience())
	}
	out.Add(c.retired)
	return out
}

// QoS returns the cluster's per-class QoS accounting (zero when
// Options.QoS is off). Completed and Shed count outcomes, once per
// request, as the router delivers or sheds them: an instance's own
// counts would add the late completion of a crashed replica still
// draining its GPU, or the losing copy of a hedged request. The token
// buckets measure work done, so they sum every replica instance,
// current or replaced after a crash. The controllers' decision counters
// and caps are per-replica control state and stay out.
func (c *Cluster) QoS() qos.Accounting {
	out := c.qos
	for _, r := range c.replicas {
		out.Add(tokensOf(r))
	}
	return out
}

// tokensOf is a replica instance's QoS accounting with only its token
// buckets kept.
func tokensOf(r *replica) qos.Accounting {
	a := r.sys.QoS().Accounting
	a.Completed, a.Shed = [qos.NumClasses]int{}, [qos.NumClasses]int{}
	return a
}

// GPUStats aggregates device counters across replicas.
func (c *Cluster) GPUStats() []gpusim.Stats {
	out := make([]gpusim.Stats, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.env.GPU.Stats()
	}
	return out
}
