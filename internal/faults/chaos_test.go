package faults

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestGenerateChaosReplay pins the bit-identical replay contract: the
// same config yields the same schedule, different seeds differ.
func TestGenerateChaosReplay(t *testing.T) {
	cfg := DefaultChaosConfig(4, units.Seconds(60))
	a, b := GenerateChaos(cfg), GenerateChaos(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same chaos config generated different schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("default chaos config generated an empty schedule")
	}
	cfg2 := cfg
	cfg2.Seed = 99
	if c := GenerateChaos(cfg2); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical schedules")
	}
}

// TestGenerateChaosShape checks every event is well-formed: sorted by
// time, inside the horizon, a router-tier kind, and targeting a valid
// replica.
func TestGenerateChaosShape(t *testing.T) {
	cfg := DefaultChaosConfig(3, units.Seconds(120))
	s := GenerateChaos(cfg)
	var losses, degrades, blips, drains int
	for i, ev := range s.Events {
		if i > 0 && ev.At < s.Events[i-1].At {
			t.Fatalf("events unsorted at %d: %v after %v", i, ev.At, s.Events[i-1].At)
		}
		if ev.At < 0 || ev.At >= cfg.Horizon {
			t.Fatalf("event %d at %v outside [0, %v)", i, ev.At, cfg.Horizon)
		}
		switch ev.Kind {
		case KindLinkDegrade:
			if ev.Duration <= 0 {
				t.Fatalf("link event %d has duration %v", i, ev.Duration)
			}
			if ev.LinkLoss {
				losses++
			} else {
				degrades++
				if ev.LinkDelay <= 0 {
					t.Fatalf("degrade event %d has no delay", i)
				}
			}
		case KindRouterBlip:
			blips++
			if ev.Duration <= 0 {
				t.Fatalf("blip %d has duration %v", i, ev.Duration)
			}
		case KindReplicaDrain:
			drains++
			if ev.Recovery <= 0 {
				t.Fatalf("drain %d has recovery %v", i, ev.Recovery)
			}
		default:
			t.Fatalf("unexpected kind %q in chaos schedule", ev.Kind)
		}
		if ev.Replica < 0 || ev.Replica >= cfg.Replicas {
			t.Fatalf("event %d targets replica %d of %d", i, ev.Replica, cfg.Replicas)
		}
	}
	if losses == 0 || degrades == 0 || blips == 0 || drains == 0 {
		t.Fatalf("degenerate mix: losses %d degrades %d blips %d drains %d", losses, degrades, blips, drains)
	}
	if s.Downtime() <= 0 {
		t.Fatal("chaos schedule carries no scheduled downtime")
	}
}

// TestGenerateChaosBursts: the Markov modulation must make storms —
// the storm-state arrival rate dominates, so a config with storms
// produces far more link faults than its calm-only twin.
func TestGenerateChaosBursts(t *testing.T) {
	cfg := DefaultChaosConfig(4, units.Seconds(300))
	calm := cfg
	calm.StormEnter = 0 // never leaves the calm state
	links := func(s Schedule) int {
		n := 0
		for _, ev := range s.Events {
			if ev.Kind == KindLinkDegrade {
				n++
			}
		}
		return n
	}
	stormy, quiet := links(GenerateChaos(cfg)), links(GenerateChaos(calm))
	if stormy < 2*quiet {
		t.Fatalf("storms added too little: %d link faults with storms vs %d without", stormy, quiet)
	}
}

// TestGenerateChaosCascades: with a high cascade probability, link
// faults must chain to the next replica slot exactly cascadeDelay
// apart.
func TestGenerateChaosCascades(t *testing.T) {
	cfg := DefaultChaosConfig(4, units.Seconds(60))
	cfg.CascadeProb = 0.9
	s := GenerateChaos(cfg)
	chains := 0
	for i := 1; i < len(s.Events); i++ {
		prev, ev := s.Events[i-1], s.Events[i]
		if ev.Kind == KindLinkDegrade && prev.Kind == KindLinkDegrade &&
			ev.At == prev.At+cascadeDelay &&
			ev.Replica == (prev.Replica+1)%cfg.Replicas {
			chains++
		}
	}
	if chains == 0 {
		t.Fatal("no cascade chains found at CascadeProb 0.9")
	}
	// A single-replica fleet has no neighbor to cascade to.
	cfg1 := DefaultChaosConfig(1, units.Seconds(60))
	cfg1.CascadeProb = 0.9
	for _, ev := range GenerateChaos(cfg1).Events {
		if ev.Replica != 0 {
			t.Fatalf("single-replica chaos targeted replica %d", ev.Replica)
		}
	}
}

func TestChaosConfigValidation(t *testing.T) {
	base := DefaultChaosConfig(2, units.Seconds(10))
	for name, mut := range map[string]func(*ChaosConfig){
		"zero horizon":       func(c *ChaosConfig) { c.Horizon = 0 },
		"zero replicas":      func(c *ChaosConfig) { c.Replicas = 0 },
		"zero step":          func(c *ChaosConfig) { c.Step = 0 },
		"prob above one":     func(c *ChaosConfig) { c.LossProb = 1.5 },
		"negative prob":      func(c *ChaosConfig) { c.StormEnter = -0.1 },
		"negative rate":      func(c *ChaosConfig) { c.BlipRate = -1 },
		"eternal cascade":    func(c *ChaosConfig) { c.CascadeProb = 1 },
		"negative exit":      func(c *ChaosConfig) { c.StormExit = -1 },
		"negative drainrate": func(c *ChaosConfig) { c.DrainRate = -0.5 },
		"nan horizon":        func(c *ChaosConfig) { c.Horizon = units.Seconds(math.NaN()) },
		"inf horizon":        func(c *ChaosConfig) { c.Horizon = units.Seconds(math.Inf(1)) },
		"nan step":           func(c *ChaosConfig) { c.Step = units.Seconds(math.NaN()) },
		"inf step":           func(c *ChaosConfig) { c.Step = units.Seconds(math.Inf(1)) },
		"nan rate":           func(c *ChaosConfig) { c.BlipRate = math.NaN() },
		"inf rate":           func(c *ChaosConfig) { c.StormLinkRate = math.Inf(1) },
		"nan prob":           func(c *ChaosConfig) { c.CascadeProb = math.NaN() },
	} {
		cfg := base
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			GenerateChaos(cfg)
		}()
	}
}

// TestChaosZeroRatesStillValid: a config with every arrival process
// disabled is legal and yields an empty schedule — the storm machinery
// must tolerate rate 0 in both states.
func TestChaosZeroRatesStillValid(t *testing.T) {
	cfg := DefaultChaosConfig(2, units.Seconds(30))
	cfg.CalmLinkRate, cfg.StormLinkRate, cfg.BlipRate, cfg.DrainRate = 0, 0, 0, 0
	if s := GenerateChaos(cfg); len(s.Events) != 0 {
		t.Fatalf("all-zero rates generated %d events", len(s.Events))
	}
}

// TestChaosScheduleInjects wires a chaos schedule through the Injector
// against a bare simulation, checking the new kinds dispatch to their
// registered handlers in order.
func TestChaosScheduleInjects(t *testing.T) {
	cfg := DefaultChaosConfig(2, units.Seconds(30))
	s := GenerateChaos(cfg)
	sm := sim.New()
	inj := NewInjector(sm, s)
	got := map[Kind]int{}
	var last sim.Time
	for _, k := range []Kind{KindLinkDegrade, KindRouterBlip, KindReplicaDrain} {
		k := k
		inj.Handle(k, func(ev Event) {
			if ev.At < last {
				t.Fatalf("events delivered out of order: %v after %v", ev.At, last)
			}
			last = ev.At
			got[k]++
		})
	}
	inj.Arm()
	sm.Run(cfg.Horizon)
	total := 0
	for _, n := range got {
		total += n
	}
	if total != len(s.Events) {
		t.Fatalf("delivered %d of %d events", total, len(s.Events))
	}
	if inj.Injected() != len(s.Events) {
		t.Fatalf("Injected() = %d, want %d", inj.Injected(), len(s.Events))
	}
}
