// Router-tier resilience (DESIGN.md §16): the cluster-side wiring of
// the internal/resilience policy objects, plus the handlers for the
// network/KV-link fault domain (link degradation/loss, router blips,
// graceful drains).
//
// Every piece of state here is mutated exclusively from router decision
// points (Cluster.decide: Submit, the pump, fault handlers, router
// timers) and the deterministic outbox merge — never from inside a
// fork/join window, so the serial ≡ parallel byte-identity contract of
// the cluster survives intact (TestChaosSerialParallelIdentical pins it).
//
// Faults and mitigations arm separately. Link faults, blips and drains
// take effect once AttachFaults routes them here, whatever the config.
// The mitigations (breakers, dispatch timeouts, hedging, buckets,
// graceful drain) act only when Config.Resilience armed them, which
// sets Cluster.armed. A nil armed config leaves the router naive — it
// keeps dispatching into black holes and treats drains as crashes —
// which is the control arm of the ext-chaos experiment.
package cluster

import (
	"repro/internal/faults"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// bucketShare scales the per-class token buckets off the base
// BucketRate/BucketBurst: premium gets 4× the best-effort allowance,
// standard 2× — the inverse of the qos.SLOFor strictness ladder.
var bucketShare = [qos.NumClasses]float64{qos.BestEffort: 1, qos.Standard: 2, qos.Premium: 4}

// blipArrival is one request parked during a router blip, paired with
// the token-bucket admission flag it was submitted with.
type blipArrival struct {
	req   workload.Request
	admit bool
}

// heldDispatch is one dispatch parked on a faulty link. protected marks
// a dispatch the slot's breaker admitted (Breaker.Allow returned true);
// only protected outcomes feed back into the breaker state machine, so
// a fail-open dispatch through an unready breaker — open before its
// probe instant, or half-open with the probe slot already taken — can
// neither close nor re-open a breaker that is waiting on its own probe.
type heldDispatch struct {
	req       workload.Request
	protected bool
}

// flight is the router's one record of a placed request: the replicas
// running a copy of it (the primary placement plus any hedge copies),
// each charged the request's input tokens. The first outcome from a
// member is delivered; later ones only release their replica's load.
// The flight dissolves when its last member reports, or fails over
// without the request being placed again (it already won, or it parks).
type flight struct {
	req     workload.Request
	primary *replica
	reps    []*replica
	won     bool
	// hedged marks a flight that a direct dispatch opened with hedging
	// armed, the only kind a hedge timer copies. A parked dispatch's
	// flight never takes a copy, even once its link delivers it.
	hedged bool
}

// join adds rep to the flight's members and charges it the request's
// input tokens.
func (fl *flight) join(rep *replica) {
	fl.reps = append(fl.reps, rep)
	rep.tokens += fl.req.InputTokens
}

// leave undoes join, reporting whether rep was a member.
func (fl *flight) leave(rep *replica) bool {
	for i, fr := range fl.reps {
		if fr == rep {
			copy(fl.reps[i:], fl.reps[i+1:])
			fl.reps = fl.reps[:len(fl.reps)-1]
			rep.tokens -= fl.req.InputTokens
			return true
		}
	}
	return false
}

// has reports membership without mutating.
func (fl *flight) has(rep *replica) bool {
	for _, fr := range fl.reps {
		if fr == rep {
			return true
		}
	}
	return false
}

// submit is the router's one admission path: blip hold, token-bucket
// admission (skipped for re-dispatches, admit=false), health-aware
// pick, placement, and link-aware dispatch with hedge arming. A request
// re-entering from failover keeps its emptied flight; one that parks
// instead gives it up, since a parked request has no flight. Callers
// run inside a decision point.
func (c *Cluster) submit(r workload.Request, admit bool) {
	now := c.outer.Sim.Now()
	if now < c.blipUntil {
		delete(c.flights, r.ID)
		c.blipHeld = append(c.blipHeld, blipArrival{req: r, admit: admit})
		return
	}
	if admit && c.armed != nil && c.buckets[0] != nil {
		cl := qos.ClassOf(r.Tenant)
		if !c.buckets[cl].Allow(now, float64(r.InputTokens)) {
			c.ledger.RateLimited++
			c.ledger.RateLimitedByClass[cl]++
			if c.tl != nil {
				c.tl.Instant("router", "rate-limit", now,
					timeline.S("tenant", r.Tenant))
			}
			c.countOutcome(&c.qos.Shed, r.Tenant)
			c.outer.Shed(r)
			return
		}
	}
	rep := c.pick()
	if rep == nil {
		delete(c.flights, r.ID)
		c.deferred = append(c.deferred, r)
		return
	}
	protected := false
	if c.armed != nil {
		// The chosen replica's breaker admits the dispatch; an open
		// breaker past its probe instant transitions to half-open here,
		// making this dispatch the probe. A fail-open pick through an
		// unready breaker dispatches unprotected: its outcome must not
		// mutate the breaker (see heldDispatch).
		protected = c.breakers[rep.slot].Allow(now)
	}
	fl := c.flights[r.ID]
	if fl == nil {
		fl = &flight{req: r}
		c.flights[r.ID] = fl
	}
	fl.primary, fl.hedged = rep, false
	fl.join(rep)
	if c.dispatch(rep, r, protected) && c.armed != nil && c.armed.Hedge.MaxHedges > 0 {
		c.hedger.NoteDispatch()
		fl.hedged = true
		c.armHedge(r, 0)
	}
}

// pick is the health-aware pick, nil when no replica can take work:
// with mitigations armed it first runs the policy over fully healthy
// replicas (up, not draining, link intact, breaker ready), then fails
// open to any up-and-admitting replica — re-routing through a degraded
// fleet beats dropping work. Without mitigations the policy runs over
// every up replica.
func (c *Cluster) pick() *replica {
	if c.armed == nil {
		return c.pickWhere(func(rep *replica) bool { return !rep.down })
	}
	now := c.outer.Sim.Now()
	if rep := c.pickWhere(func(rep *replica) bool {
		return !rep.down && !rep.draining && !rep.linkLost && rep.linkDelay == 0 &&
			c.breakers[rep.slot].Ready(now)
	}); rep != nil {
		return rep
	}
	return c.pickWhere(func(rep *replica) bool { return !rep.down && !rep.draining })
}

// dispatch delivers a placed request across the (possibly faulty) link
// to its replica, reporting whether delivery was direct. Lost links
// park the dispatch until the link restores or the dispatch timeout
// re-routes it; degraded links deliver it late. Only breaker-admitted
// (protected) dispatches report their outcome to the breaker.
func (c *Cluster) dispatch(rep *replica, r workload.Request, protected bool) bool {
	if rep.linkLost {
		rep.held = append(rep.held, heldDispatch{req: r, protected: protected})
		c.armDispatchTimeout(rep, r)
		return false
	}
	if rep.linkDelay > 0 {
		rep.held = append(rep.held, heldDispatch{req: r, protected: protected})
		id := r.ID
		c.after(rep.linkDelay, func() { c.deliverHeld(rep, id) })
		c.armDispatchTimeout(rep, r)
		return false
	}
	rep.sys.Submit(r)
	if protected {
		c.breakers[rep.slot].ReportSuccess()
	}
	return true
}

// removeHeld takes the request with the given ID off the replica's held
// buffer. Exactly one of the racing consumers (delayed delivery,
// dispatch timeout, link-restore flush) wins; the others see false.
func (c *Cluster) removeHeld(rep *replica, id string) (heldDispatch, bool) {
	for i, h := range rep.held {
		if h.req.ID == id {
			rep.held = append(rep.held[:i], rep.held[i+1:]...)
			return h, true
		}
	}
	return heldDispatch{}, false
}

// deliverHeld completes a delayed dispatch across a degraded link.
func (c *Cluster) deliverHeld(rep *replica, id string) {
	if h, ok := c.removeHeld(rep, id); ok {
		rep.sys.Submit(h.req)
		if h.protected {
			c.breakers[rep.slot].ReportSuccess()
		}
	}
}

// armDispatchTimeout bounds how long a dispatch may sit parked on a
// faulty link. On expiry the router counts a breaker failure and fails
// the request over (re-entering without the admission bucket — it was
// already admitted). Unarmed when mitigations are off: the naive router
// waits for the link, however long that takes.
func (c *Cluster) armDispatchTimeout(rep *replica, r workload.Request) {
	if c.armed == nil {
		return
	}
	c.after(c.armed.DispatchTimeout, func() {
		h, ok := c.removeHeld(rep, r.ID)
		if !ok {
			return
		}
		now := c.outer.Sim.Now()
		c.timeouts++
		if h.protected {
			c.breakers[rep.slot].ReportFailure(now)
		}
		if c.tl != nil {
			c.tl.Instant("router", "dispatch-timeout", now,
				timeline.I("replica", rep.slot))
		}
		if c.failover(rep, r) {
			c.ledger.Retried++
		}
	})
}

// armHedge schedules hedge attempt number attempt (0-based) for a
// directly dispatched request: if the flight is still unresolved when
// the straggler threshold passes and the budget allows, one extra copy
// goes to a healthy replica not already running it. The timer looks its
// flight up by request ID, so it also serves a flight that a failover
// re-opened for the same request.
func (c *Cluster) armHedge(r workload.Request, attempt int) {
	if attempt >= c.armed.Hedge.MaxHedges {
		return
	}
	c.after(c.hedger.Delay(attempt), func() {
		fl, ok := c.flights[r.ID]
		if !ok || !fl.hedged || fl.won {
			return
		}
		if !c.hedger.CanHedge() {
			return
		}
		now := c.outer.Sim.Now()
		// Hedge copies only go to fully healthy replicas the flight does
		// not already cover — a copy parked on a bad link would defeat
		// the point.
		rep := c.pickWhere(func(rep *replica) bool {
			return !rep.down && !rep.draining && !rep.linkLost && rep.linkDelay == 0 &&
				c.breakers[rep.slot].Ready(now) && !fl.has(rep)
		})
		if rep == nil {
			c.armHedge(r, attempt+1)
			return
		}
		c.hedger.NoteHedge()
		fl.join(rep)
		rep.sys.Submit(r)
		c.breakers[rep.slot].ReportSuccess()
		if c.tl != nil {
			c.tl.Instant("router", "hedge", now,
				timeline.I("replica", rep.slot),
				timeline.I("attempt", attempt))
		}
		c.armHedge(r, attempt+1)
	})
}

// failover takes rep out of w's flight once rep has lost the request to
// a crash, a drain handoff or a dispatch timeout, and reports whether
// the request re-entered the router. It does not when other members
// still run a copy, nor when the flight already delivered its outcome —
// Env.Complete is exactly-once, so a re-dispatch would deliver it twice
// and end the run with another request unserved. Re-entry skips the
// admission bucket (the request was already admitted) and keeps the
// emptied, unwon flight for submit to reuse.
func (c *Cluster) failover(rep *replica, w workload.Request) bool {
	fl := c.flights[w.ID]
	fl.leave(rep)
	if len(fl.reps) > 0 {
		return false
	}
	if fl.won {
		delete(c.flights, w.ID)
		return false
	}
	c.submit(w, false)
	return true
}

// onLinkFault applies a KindLinkDegrade event: the targeted replica's
// link black-holes (LinkLoss) or delays (LinkDelay) dispatches for the
// event duration, then restores and flushes whatever is still parked.
// The generation fence keeps overlapping link faults and crashes from
// restoring each other's state.
func (c *Cluster) onLinkFault(ev faults.Event) {
	rep := c.replicas[ev.Replica%len(c.replicas)]
	if rep.down {
		return // the machine is gone; its link state is moot
	}
	c.ledger.LinkFaults++
	rep.linkGen++
	gen := rep.linkGen
	rep.linkLost = ev.LinkLoss
	rep.linkDelay = ev.LinkDelay
	if c.tl != nil {
		mode := "degrade"
		if ev.LinkLoss {
			mode = "loss"
		}
		c.tl.Instant("router", "link-fault", c.outer.Sim.Now(),
			timeline.I("replica", rep.slot),
			timeline.S("mode", mode))
	}
	c.after(ev.Duration, func() {
		if c.replicas[rep.slot] != rep || rep.linkGen != gen {
			return
		}
		rep.linkLost = false
		rep.linkDelay = 0
		held := rep.held
		rep.held = nil
		for _, h := range held {
			rep.sys.Submit(h.req)
			// A protected dispatch delivered at restore resolves its
			// breaker outcome as a success — a half-open probe parked
			// here would otherwise never report and wedge the breaker.
			if h.protected {
				c.breakers[rep.slot].ReportSuccess()
			}
		}
		c.ledger.Recovered(ev.Duration)
		if c.tl != nil {
			c.tl.Instant("router", "link-restore", c.outer.Sim.Now(),
				timeline.I("replica", rep.slot),
				timeline.I("flushed", len(held)))
		}
	})
}

// onRouterBlip freezes router dispatch entirely for the event duration;
// arrivals park in blipHeld and flush when the last overlapping blip
// ends. Blips hit the router itself, so they apply identically with
// mitigations on or off.
func (c *Cluster) onRouterBlip(ev faults.Event) {
	now := c.outer.Sim.Now()
	if until := now + ev.Duration; until > c.blipUntil {
		c.blipUntil = until
	}
	if c.tl != nil {
		c.tl.Instant("router", "blip", now, timeline.F("duration", ev.Duration.Float()))
	}
	c.after(ev.Duration, func() {
		if c.outer.Sim.Now() < c.blipUntil {
			return // a later overlapping blip ends the episode
		}
		flush := c.blipHeld
		c.blipHeld = nil
		for _, h := range flush {
			// Fresh arrivals never reached the admission bucket and are
			// charged now, at flush time; parked re-dispatches
			// (admit=false) were already admitted and replay as such.
			c.submit(h.req, h.admit)
		}
		c.ledger.Recovered(ev.Duration)
	})
}

// onReplicaDrain runs the graceful drain/restart protocol: the replica
// stops admitting, hands its waiting queue (which holds no KV) to
// healthy peers, finishes in-flight work on its own clock, and readmits
// after the restart window. Without mitigations armed there is no
// graceful protocol — the drain degenerates to an abrupt crash/restart.
// A handoff is not a retry: the request never ran.
func (c *Cluster) onReplicaDrain(ev faults.Event) {
	if c.armed == nil {
		c.onReplicaCrash(ev)
		return
	}
	rep := c.replicas[ev.Replica%len(c.replicas)]
	if rep.down || rep.draining {
		return
	}
	rep.draining = true
	c.ledger.Drains++
	waiting := rep.sys.ExtractWaiting()
	if c.tl != nil {
		c.tl.Instant("router", "drain", c.outer.Sim.Now(),
			timeline.I("replica", rep.slot),
			timeline.I("handoff", len(waiting)))
	}
	for _, w := range waiting {
		c.ledger.Handoffs++
		c.failover(rep, w)
	}
	c.after(ev.Recovery, func() {
		if c.replicas[rep.slot] == rep && !rep.down {
			rep.draining = false
			c.ledger.Recovered(ev.Recovery)
			if c.tl != nil {
				c.tl.Instant("router", "readmit", c.outer.Sim.Now(),
					timeline.I("replica", rep.slot))
			}
		}
		c.flushDeferred()
	})
}

// Quiesce advances the replicas until no private-clock events remain.
// The serving run loop stops as soon as every trace request has
// resolved, which can leave hedge-loser copies mid-decode on their
// replicas; Env.Run calls Quiesce (through the hook New installs) before
// CheckDrained so those copies finish and release their KV and router
// accounting. A repeat call finds nothing to advance.
func (c *Cluster) Quiesce() {
	for {
		var at sim.Time
		found := false
		for _, r := range c.replicas {
			if r.down {
				continue
			}
			if t, ok := r.env.Sim.NextAt(); ok && (!found || t > at) {
				at, found = t, true
			}
		}
		if !found {
			return
		}
		c.advanceTo(at)
	}
}

// DispatchTimeouts returns how many parked dispatches were re-routed by
// the timeout, zero without mitigations armed.
func (c *Cluster) DispatchTimeouts() int { return c.timeouts }
