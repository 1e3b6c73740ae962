// Chaos schedules: correlated, cascading router-tier fault timelines
// (DESIGN.md §16). Where Generate draws each kind as an independent
// Poisson process, GenerateChaos models the two correlations real
// incidents show — bursts (a 2-state calm/storm Markov chain modulates
// the link-fault rate, so outages cluster into storms) and cascades (a
// link fault at one replica spawns follow-on faults at its neighbors
// with geometric chaining, the pattern of a shared switch or rack going
// bad). Everything still draws from one seeded *rand.Rand in one fixed
// order, so the same ChaosConfig always yields a bit-identical Schedule
// (TestGenerateChaosReplay pins this).
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
	"repro/internal/units"
)

// ChaosConfig parameterizes GenerateChaos. Rates are events per second
// of virtual time; probabilities are in [0,1].
type ChaosConfig struct {
	Seed    int64
	Horizon sim.Time
	// Replicas bounds link and drain targets.
	Replicas int

	// Step is the Markov modulation step: the calm/storm state holds for
	// Step, then transitions with the probabilities below.
	Step sim.Time
	// StormEnter / StormExit are the per-step calm→storm and storm→calm
	// transition probabilities.
	StormEnter float64
	StormExit  float64

	// CalmLinkRate / StormLinkRate are the link-fault arrival rates in
	// the two states.
	CalmLinkRate  float64
	StormLinkRate float64
	// LossProb is the probability a link fault is a full loss
	// (black-holed dispatches) rather than a degradation (added delay).
	LossProb float64
	// MeanLinkDuration is the mean link-outage length.
	MeanLinkDuration sim.Time

	// CascadeProb is the probability a link fault spawns a follow-on
	// fault at the next replica slot cascadeDelay later; chains continue
	// geometrically (each hop re-draws).
	CascadeProb float64
	// BlipRate / DrainRate are the arrival rates of router blips and of
	// replica drain/restart events.
	BlipRate  float64
	DrainRate float64
}

// The shapes of GenerateChaos's events.
const (
	// meanLinkDelay is the mean added per-dispatch delay of a degraded
	// (non-loss) link.
	meanLinkDelay = units.Seconds(120e-3)
	// cascadeDelay separates the hops of a cascade chain.
	cascadeDelay = units.Seconds(250e-3)
	// meanBlip is the mean router-blip length.
	meanBlip = units.Seconds(400e-3)
	// meanRestart is the mean delay before a drained replica returns.
	meanRestart = units.Seconds(2)
)

// DefaultChaosConfig returns a storm-heavy link-failure mix for a
// cluster of the given size: calm background noise, storms that take
// whole links out for seconds at a time with rack-style cascades, plus
// occasional router blips and rolling drains.
func DefaultChaosConfig(replicas int, horizon sim.Time) ChaosConfig {
	return ChaosConfig{
		Seed:     1,
		Horizon:  horizon,
		Replicas: replicas,

		Step:       units.Seconds(1),
		StormEnter: 0.15,
		StormExit:  0.25,

		CalmLinkRate:     0.02,
		StormLinkRate:    0.6,
		LossProb:         0.75,
		MeanLinkDuration: units.Seconds(3),

		CascadeProb: 0.4,
		BlipRate:    0.02,
		DrainRate:   0.01,
	}
}

// validate panics on nonsensical parameters.
func (cfg ChaosConfig) validate() {
	if !validSpan(cfg.Horizon) || cfg.Replicas <= 0 {
		panic(fmt.Sprintf("faults: invalid chaos config horizon=%v replicas=%d", cfg.Horizon, cfg.Replicas))
	}
	if !validSpan(cfg.Step) {
		panic(fmt.Sprintf("faults: invalid chaos modulation step %v", cfg.Step))
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"StormEnter", cfg.StormEnter}, {"StormExit", cfg.StormExit},
		{"LossProb", cfg.LossProb}, {"CascadeProb", cfg.CascadeProb},
	} {
		if !validProb(p.v) {
			panic(fmt.Sprintf("faults: chaos %s %v outside [0,1]", p.name, p.v))
		}
	}
	if !validRate(cfg.CalmLinkRate) || !validRate(cfg.StormLinkRate) || !validRate(cfg.BlipRate) || !validRate(cfg.DrainRate) {
		panic(fmt.Sprintf("faults: negative or non-finite chaos rate in config %+v", cfg))
	}
	if cfg.CascadeProb >= 1 {
		// The range check above admits 1.0, but a chain that never stops
		// would loop forever (the horizon bound saves it only because
		// each hop advances time; be strict anyway).
		panic("faults: CascadeProb 1.0 would cascade forever")
	}
}

// GenerateChaos derives a correlated router-tier fault schedule from
// cfg, deterministically from cfg.Seed. The Markov chain and every
// event parameter draw from one rng in one fixed order (state
// transition, then that step's link events oldest-first with their
// cascades inline; blips and drains drawn after all link events), so
// replays are bit-identical.
func GenerateChaos(cfg ChaosConfig) Schedule {
	cfg.validate()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := Schedule{Seed: cfg.Seed}

	// Link faults: calm/storm-modulated Poisson arrivals per step, each
	// possibly heading a cascade chain across neighboring replicas.
	storm := false
	for stepStart := sim.Time(0); stepStart < cfg.Horizon; stepStart += cfg.Step {
		if storm {
			storm = rng.Float64() >= cfg.StormExit
		} else {
			storm = rng.Float64() < cfg.StormEnter
		}
		rate := cfg.CalmLinkRate
		if storm {
			rate = cfg.StormLinkRate
		}
		if rate <= 0 {
			continue
		}
		stepEnd := units.Min(stepStart+cfg.Step, cfg.Horizon)
		t := stepStart
		for {
			t += units.Over(units.Seconds(rng.ExpFloat64()), rate)
			if t >= stepEnd {
				break
			}
			first := linkEvent(rng, cfg, t, rng.Intn(cfg.Replicas))
			s.Events = append(s.Events, first)
			// Cascade: geometric chain across neighboring slots, each hop
			// re-drawing its own outage parameters.
			replica := first.Replica
			at := t
			for cfg.Replicas > 1 && rng.Float64() < cfg.CascadeProb {
				replica = (replica + 1) % cfg.Replicas
				at += cascadeDelay
				if at >= cfg.Horizon {
					break
				}
				s.Events = append(s.Events, linkEvent(rng, cfg, at, replica))
			}
		}
	}

	// Router blips and drains: independent Poisson processes, drawn
	// after all link events so tweaking the link parameters never
	// perturbs their arrival times for a fixed seed.
	for _, t := range arrivals(rng, cfg.BlipRate, cfg.Horizon) {
		s.Events = append(s.Events, Event{
			At:       t,
			Kind:     KindRouterBlip,
			Duration: units.Scale(meanBlip, 0.5+rng.ExpFloat64()),
		})
	}
	for _, t := range arrivals(rng, cfg.DrainRate, cfg.Horizon) {
		s.Events = append(s.Events, Event{
			At:       t,
			Kind:     KindReplicaDrain,
			Replica:  rng.Intn(cfg.Replicas),
			Recovery: units.Scale(meanRestart, 0.5+rng.ExpFloat64()),
		})
	}

	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].At < s.Events[j].At
	})
	return s
}

// linkEvent draws one link fault at time t against the given replica:
// loss or degradation, outage length, and (for degradations) the added
// per-dispatch delay.
func linkEvent(rng *rand.Rand, cfg ChaosConfig, t sim.Time, replica int) Event {
	ev := Event{
		At:       t,
		Kind:     KindLinkDegrade,
		Replica:  replica,
		Duration: units.Scale(cfg.MeanLinkDuration, 0.5+rng.ExpFloat64()),
	}
	if rng.Float64() < cfg.LossProb {
		ev.LinkLoss = true
	} else {
		ev.LinkDelay = units.Scale(meanLinkDelay, 0.5+rng.ExpFloat64())
	}
	return ev
}
