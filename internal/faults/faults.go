// Package faults provides deterministic fault injection for the Bullet
// simulator: a seeded schedule generator plus an injector that replays
// the schedule as ordinary virtual-time events.
//
// Four fault kinds model the failure surface of a spatially-shared
// serving GPU:
//
//   - SM degradation (KindSMDegrade): a contiguous, granularity-aligned
//     SM range is throttled or killed outright. The resilience path is
//     Bullet's own mechanism — the resource manager rebuilds its
//     pre-configured masked-stream table around the dead SMs (§3.4) and
//     Algorithm 1 re-optimizes against the shrunken budget.
//   - Engine stalls (KindEngineStall): a transient hang of the prefill
//     or decode cycle, or an inflated metadata-buffer latency (§3.5),
//     bounded by a watchdog in internal/core.
//   - Replica crash (KindReplicaCrash): a whole replica goes down and
//     its in-flight requests must be re-routed (internal/cluster).
//   - KV capacity shrink (KindKVShrink): a fraction of the KV pool is
//     lost to fragmentation or a leak for a period; the pool drains the
//     lost blocks live and the memory-pressure subsystem
//     (internal/pressure) absorbs the squeeze.
//
// Everything is deterministic: Generate draws from one explicitly
// seeded *rand.Rand, events fire through internal/sim, and the same
// seed + schedule always produces bit-identical serving results. The
// package holds no goroutines, wall clocks, or global randomness — it
// is subject to the full bulletlint determinism contract.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/units"
)

// Kind names a fault class.
type Kind string

const (
	// KindSMDegrade throttles or kills a contiguous SM range.
	KindSMDegrade Kind = "sm-degrade"
	// KindEngineStall hangs an engine cycle or delays the metadata buffer.
	KindEngineStall Kind = "engine-stall"
	// KindReplicaCrash takes a whole replica down for a recovery period.
	KindReplicaCrash Kind = "replica-crash"
	// KindKVShrink retires a fraction of the KV pool's capacity
	// (fragmentation or a leak) for a period, then restores it.
	KindKVShrink Kind = "kv-shrink"
	// KindLinkDegrade degrades (added per-dispatch delay) or severs
	// (full loss) the router↔replica KV-transfer link for a period —
	// the network fault domain of internal/cluster.
	KindLinkDegrade Kind = "link-degrade"
	// KindRouterBlip freezes router dispatch for a period; arrivals
	// queue at the router and flush when it comes back.
	KindRouterBlip Kind = "router-blip"
	// KindReplicaDrain asks a replica to restart: with resilience on the
	// cluster drains it gracefully (stop admitting, hand off waiting
	// work, finish in-flight decode, readmit after Recovery); without,
	// the restart is abrupt and reuses the crash failover path.
	KindReplicaDrain Kind = "replica-drain"
)

// Target selects which component an engine stall hits.
type Target string

const (
	// TargetPrefill hangs the prefill engine's cycle.
	TargetPrefill Target = "prefill"
	// TargetDecode hangs the decode engine's cycle.
	TargetDecode Target = "decode"
	// TargetBuffer inflates the metadata buffer's transfer latency.
	TargetBuffer Target = "buffer"
)

// Event is one scheduled fault. Only the fields of its Kind are
// meaningful; the rest stay zero.
type Event struct {
	At   sim.Time
	Kind Kind

	// KindSMDegrade: SMs [FirstSM, FirstSM+NumSMs) drop to speed factor
	// Throttle (0 dead, fractions throttled) for Duration, then recover.
	FirstSM  int
	NumSMs   int
	Throttle float64
	Duration sim.Time

	// KindEngineStall: Target hangs (or, for TargetBuffer, slows) for
	// Stall of virtual time.
	Target Target
	Stall  sim.Time

	// KindReplicaCrash: cluster replica index Replica goes down and is
	// readmitted after Recovery.
	Replica  int
	Recovery sim.Time

	// KindKVShrink: KVFraction of the pool's current capacity retires
	// for Duration, then restores.
	KVFraction float64

	// KindLinkDegrade: the link to Replica adds LinkDelay to every
	// dispatch — or black-holes dispatches entirely when LinkLoss — for
	// Duration, then restores. KindRouterBlip freezes dispatch for
	// Duration; KindReplicaDrain restarts Replica with readmission
	// after Recovery.
	LinkDelay sim.Time
	LinkLoss  bool
}

// Schedule is a generated fault timeline, sorted by At.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Downtime sums the scheduled outage spans across all events: degrade
// durations, stall lengths, and replica recovery delays. Spans may
// overlap in wall time; this is injected-fault volume, not availability.
func (s Schedule) Downtime() units.Seconds {
	var d units.Seconds
	for _, ev := range s.Events {
		d += ev.Duration + ev.Stall + ev.Recovery
	}
	return d
}

// Config parameterizes Generate. Rates are events per second of virtual
// time over [0, Horizon); a zero rate disables that kind.
type Config struct {
	Seed    int64
	Horizon sim.Time
	NumSMs  int
	// Replicas bounds KindReplicaCrash targets; single-GPU runs use 1.
	Replicas int

	DegradeRate float64
	StallRate   float64
	CrashRate   float64
	// KVShrinkRate is the arrival rate of KV capacity-shrink faults
	// (0 in DefaultConfig; enable it for memory-pressure runs).
	KVShrinkRate float64

	// MeanKVShrinkFraction is the mean fraction of KV capacity one
	// shrink event retires (drawn values are capped at 0.9 so the pool
	// never vanishes entirely).
	MeanKVShrinkFraction float64
	// MeanKVShrinkDuration is the mean time until the capacity restores.
	MeanKVShrinkDuration sim.Time
}

// The shapes of Generate's degrade, stall and crash events.
const (
	// meanDegradeDuration is the mean transient-degradation length.
	meanDegradeDuration = units.Seconds(4)
	// maxDegradeFraction caps the SM span of one degrade event as a
	// fraction of the device.
	maxDegradeFraction = 0.25
	// deadProb is the probability a degraded range is fully dead
	// (Throttle 0) rather than throttled.
	deadProb = 0.5
	// meanStall is the mean engine-cycle hang length.
	meanStall = units.Seconds(80e-3)
	// meanBufferDelay is the mean inflated metadata-buffer latency.
	meanBufferDelay = units.Seconds(2e-3)
	// meanRecovery is the mean replica restart delay.
	meanRecovery = units.Seconds(2)
)

// DefaultConfig returns a moderate single-replica fault mix for a device
// of numSMs over the given horizon: transient SM degradations, shorter
// engine stalls, and no crashes (enable CrashRate for cluster runs).
func DefaultConfig(numSMs int, horizon sim.Time) Config {
	return Config{
		Seed:        1,
		Horizon:     horizon,
		NumSMs:      numSMs,
		Replicas:    1,
		DegradeRate: 0.05,
		StallRate:   0.05,
		CrashRate:   0,

		KVShrinkRate:         0,
		MeanKVShrinkFraction: 0.3,
		MeanKVShrinkDuration: units.Seconds(5),
	}
}

// Generate derives a fault schedule from cfg, deterministically from
// cfg.Seed. Each kind's arrivals form an independent Poisson process;
// the merged timeline is sorted by fire time with the generation order
// (degrade, stall, crash) breaking ties stably.
func Generate(cfg Config) Schedule {
	if !validSpan(cfg.Horizon) || cfg.NumSMs <= 0 {
		panic(fmt.Sprintf("faults: invalid config horizon=%v numSMs=%d", cfg.Horizon, cfg.NumSMs))
	}
	if !validRate(cfg.DegradeRate) || !validRate(cfg.StallRate) || !validRate(cfg.CrashRate) || !validRate(cfg.KVShrinkRate) {
		panic(fmt.Sprintf("faults: negative or non-finite fault rate in config %+v", cfg))
	}
	if !validProb(cfg.MeanKVShrinkFraction) {
		panic(fmt.Sprintf("faults: MeanKVShrinkFraction %v outside [0,1]", cfg.MeanKVShrinkFraction))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := Schedule{Seed: cfg.Seed}
	for _, t := range arrivals(rng, cfg.DegradeRate, cfg.Horizon) {
		s.Events = append(s.Events, degradeEvent(rng, cfg, t))
	}
	for _, t := range arrivals(rng, cfg.StallRate, cfg.Horizon) {
		s.Events = append(s.Events, stallEvent(rng, cfg, t))
	}
	for _, t := range arrivals(rng, cfg.CrashRate, cfg.Horizon) {
		s.Events = append(s.Events, crashEvent(rng, cfg, t))
	}
	// Drawn last so schedules generated before this kind existed stay
	// bit-identical (a zero rate consumes no randomness).
	for _, t := range arrivals(rng, cfg.KVShrinkRate, cfg.Horizon) {
		s.Events = append(s.Events, kvShrinkEvent(rng, cfg, t))
	}
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].At < s.Events[j].At
	})
	return s
}

// validSpan reports whether t is finite and positive (NaN is not).
func validSpan(t sim.Time) bool { return t > 0 && !units.IsInf(t, 1) }

// validRate reports whether r is finite and nonnegative (NaN is not).
func validRate(r float64) bool { return r >= 0 && !math.IsInf(r, 1) }

// validProb reports whether p lies in [0,1] (NaN does not).
func validProb(p float64) bool { return p >= 0 && p <= 1 }

// arrivals returns Poisson event times in [0, horizon) at the given
// rate (events/s); a zero rate yields none.
func arrivals(rng *rand.Rand, rate float64, horizon sim.Time) []sim.Time {
	if rate <= 0 {
		return nil
	}
	var ts []sim.Time
	t := sim.Time(0)
	for {
		t += units.Over(units.Seconds(rng.ExpFloat64()), rate)
		if t >= horizon {
			return ts
		}
		ts = append(ts, t)
	}
}

// degradeEvent draws a granularity-aligned SM range, a throttle factor,
// and a transient duration.
func degradeEvent(rng *rand.Rand, cfg Config, t sim.Time) Event {
	maxSMs := int(maxDegradeFraction * float64(cfg.NumSMs))
	maxSMs -= maxSMs % smmask.Granularity
	if maxSMs < smmask.Granularity {
		maxSMs = smmask.Granularity
	}
	n := smmask.Granularity * (1 + rng.Intn(maxSMs/smmask.Granularity))
	if n > cfg.NumSMs {
		n = cfg.NumSMs
	}
	slots := (cfg.NumSMs-n)/smmask.Granularity + 1
	first := smmask.Granularity * rng.Intn(slots)
	throttle := 0.0
	if rng.Float64() >= deadProb {
		throttle = 0.25 + 0.5*rng.Float64()
	}
	return Event{
		At:       t,
		Kind:     KindSMDegrade,
		FirstSM:  first,
		NumSMs:   n,
		Throttle: throttle,
		Duration: units.Scale(meanDegradeDuration, 0.5+rng.ExpFloat64()),
	}
}

// stallEvent picks a component uniformly and draws the hang length from
// the component's mean.
func stallEvent(rng *rand.Rand, cfg Config, t sim.Time) Event {
	targets := [3]Target{TargetPrefill, TargetDecode, TargetBuffer}
	target := targets[rng.Intn(len(targets))]
	mean := meanStall
	if target == TargetBuffer {
		mean = meanBufferDelay
	}
	return Event{
		At:     t,
		Kind:   KindEngineStall,
		Target: target,
		Stall:  units.Scale(mean, 0.5+rng.ExpFloat64()),
	}
}

// crashEvent picks a replica uniformly and draws its recovery delay.
func crashEvent(rng *rand.Rand, cfg Config, t sim.Time) Event {
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	return Event{
		At:       t,
		Kind:     KindReplicaCrash,
		Replica:  rng.Intn(replicas),
		Recovery: units.Scale(meanRecovery, 0.5+rng.ExpFloat64()),
	}
}

// kvShrinkEvent draws the retired-capacity fraction (capped below 1 so
// the pool never vanishes) and the restore delay.
func kvShrinkEvent(rng *rand.Rand, cfg Config, t sim.Time) Event {
	frac := cfg.MeanKVShrinkFraction * (0.5 + rng.ExpFloat64())
	if frac > 0.9 {
		frac = 0.9
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	return Event{
		At:         t,
		Kind:       KindKVShrink,
		Replica:    rng.Intn(replicas),
		KVFraction: frac,
		Duration:   units.Scale(cfg.MeanKVShrinkDuration, 0.5+rng.ExpFloat64()),
	}
}

// Injector replays a schedule into a simulation, dispatching each event
// to the handler registered for its kind. Events with no handler are
// counted as dropped, not errors — a single-GPU run legitimately has no
// replica-crash handler.
type Injector struct {
	sim      *sim.Simulation
	schedule Schedule
	handlers map[Kind]func(Event)
	injected int
	dropped  int
	armed    bool
}

// NewInjector creates an injector for a schedule. Register handlers
// with Handle, then call Arm once to schedule the events.
func NewInjector(s *sim.Simulation, schedule Schedule) *Injector {
	if s == nil {
		panic("faults: NewInjector with nil simulation")
	}
	return &Injector{sim: s, schedule: schedule, handlers: map[Kind]func(Event){}}
}

// Schedule returns the timeline this injector replays.
func (in *Injector) Schedule() Schedule { return in.schedule }

// Handle registers the handler for a fault kind, replacing any previous
// one. It must be called before Arm.
func (in *Injector) Handle(k Kind, fn func(Event)) {
	if in.armed {
		panic(fmt.Sprintf("faults: Handle(%q) after Arm", k))
	}
	if fn == nil {
		panic(fmt.Sprintf("faults: nil handler for kind %q", k))
	}
	in.handlers[k] = fn
}

// Arm schedules every handled event as a simulation event at its fire
// time (clamped to now for events already in the past). It may be
// called only once.
func (in *Injector) Arm() {
	if in.armed {
		panic("faults: injector armed twice")
	}
	in.armed = true
	for _, ev := range in.schedule.Events {
		fn, ok := in.handlers[ev.Kind]
		if !ok {
			in.dropped++
			continue
		}
		at := units.Max(ev.At, in.sim.Now())
		ev := ev
		in.sim.Post(at, func() {
			in.injected++
			fn(ev)
		})
	}
}

// Injected returns how many events have fired so far.
func (in *Injector) Injected() int { return in.injected }

// Dropped returns how many events had no handler at Arm time.
func (in *Injector) Dropped() int { return in.dropped }

// ScheduledDowntime returns the schedule's total injected-fault volume.
func (in *Injector) ScheduledDowntime() units.Seconds { return in.schedule.Downtime() }
