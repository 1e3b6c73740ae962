package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/units"
)

func testConfig() Config {
	cfg := DefaultConfig(108, units.Seconds(60))
	cfg.CrashRate = 0.02
	cfg.Replicas = 4
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testConfig())
	b := Generate(testConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Events) == 0 {
		t.Fatal("default-rate schedule over 60s generated no events")
	}
	cfg := testConfig()
	cfg.Seed = 99
	c := Generate(cfg)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateSortedAndValid(t *testing.T) {
	cfg := testConfig()
	s := Generate(cfg)
	var kinds = map[Kind]int{}
	last := sim.Time(0)
	for i, ev := range s.Events {
		if ev.At < last {
			t.Fatalf("event %d at %v fires before predecessor at %v", i, ev.At, last)
		}
		last = ev.At
		if ev.At < 0 || ev.At >= cfg.Horizon {
			t.Fatalf("event %d at %v outside horizon [0,%v)", i, ev.At, cfg.Horizon)
		}
		kinds[ev.Kind]++
		switch ev.Kind {
		case KindSMDegrade:
			if ev.FirstSM%smmask.Granularity != 0 || ev.NumSMs%smmask.Granularity != 0 {
				t.Fatalf("event %d: unaligned SM range [%d,%d)", i, ev.FirstSM, ev.FirstSM+ev.NumSMs)
			}
			if ev.FirstSM < 0 || ev.NumSMs <= 0 || ev.FirstSM+ev.NumSMs > cfg.NumSMs {
				t.Fatalf("event %d: SM range [%d,%d) outside device of %d",
					i, ev.FirstSM, ev.FirstSM+ev.NumSMs, cfg.NumSMs)
			}
			maxN := int(maxDegradeFraction * float64(cfg.NumSMs))
			if ev.NumSMs > maxN {
				t.Fatalf("event %d: degrade span %d exceeds cap %d", i, ev.NumSMs, maxN)
			}
			if ev.Throttle < 0 || ev.Throttle >= 1 {
				t.Fatalf("event %d: throttle %v outside [0,1)", i, ev.Throttle)
			}
			if ev.Duration <= 0 {
				t.Fatalf("event %d: non-transient degrade duration %v", i, ev.Duration)
			}
		case KindEngineStall:
			if ev.Target != TargetPrefill && ev.Target != TargetDecode && ev.Target != TargetBuffer {
				t.Fatalf("event %d: unknown stall target %q", i, ev.Target)
			}
			if ev.Stall <= 0 {
				t.Fatalf("event %d: non-positive stall %v", i, ev.Stall)
			}
		case KindReplicaCrash:
			if ev.Replica < 0 || ev.Replica >= cfg.Replicas {
				t.Fatalf("event %d: replica %d outside fleet of %d", i, ev.Replica, cfg.Replicas)
			}
			if ev.Recovery <= 0 {
				t.Fatalf("event %d: non-positive recovery %v", i, ev.Recovery)
			}
		default:
			t.Fatalf("event %d: unknown kind %q", i, ev.Kind)
		}
	}
	for _, k := range []Kind{KindSMDegrade, KindEngineStall, KindReplicaCrash} {
		if kinds[k] == 0 {
			t.Errorf("no %q events generated over a 60s horizon", k)
		}
	}
	if s.Downtime() <= 0 {
		t.Fatalf("non-empty schedule reports downtime %v", s.Downtime())
	}
}

func TestGenerateZeroRates(t *testing.T) {
	cfg := testConfig()
	cfg.DegradeRate, cfg.StallRate, cfg.CrashRate = 0, 0, 0
	s := Generate(cfg)
	if len(s.Events) != 0 {
		t.Fatalf("zero-rate config generated %d events", len(s.Events))
	}
	if s.Downtime() != 0 {
		t.Fatalf("empty schedule reports downtime %v", s.Downtime())
	}
}

// TestGenerateRejectsBadConfig: a non-positive, NaN or infinite horizon
// or rate panics with a message instead of looping forever drawing
// arrivals that never reach the horizon.
func TestGenerateRejectsBadConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(*Config){
		"zero horizon":      func(c *Config) { c.Horizon = 0 },
		"nan horizon":       func(c *Config) { c.Horizon = units.Seconds(nan) },
		"inf horizon":       func(c *Config) { c.Horizon = units.Seconds(inf) },
		"zero sms":          func(c *Config) { c.NumSMs = 0 },
		"negative rate":     func(c *Config) { c.DegradeRate = -1 },
		"nan rate":          func(c *Config) { c.StallRate = nan },
		"inf rate":          func(c *Config) { c.CrashRate = inf },
		"nan shrink rate":   func(c *Config) { c.KVShrinkRate = nan },
		"nan shrink frac":   func(c *Config) { c.MeanKVShrinkFraction = nan },
		"shrink frac above": func(c *Config) { c.MeanKVShrinkFraction = 1.5 },
	} {
		cfg := testConfig()
		mut(&cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "faults: ") {
					t.Errorf("%s: panic %q, want a faults: message", name, msg)
				}
			}()
			Generate(cfg)
		}()
	}
}

func TestInjectorDispatch(t *testing.T) {
	s := sim.New()
	sched := Generate(testConfig())
	in := NewInjector(s, sched)
	var got []Event
	in.Handle(KindSMDegrade, func(ev Event) { got = append(got, ev) })
	in.Handle(KindEngineStall, func(ev Event) { got = append(got, ev) })
	// KindReplicaCrash left unhandled on purpose.
	in.Arm()
	var wantDropped int
	for _, ev := range sched.Events {
		if ev.Kind == KindReplicaCrash {
			wantDropped++
		}
	}
	if in.Dropped() != wantDropped {
		t.Fatalf("Dropped() = %d, want %d", in.Dropped(), wantDropped)
	}
	s.RunAll(1 << 20)
	if in.Injected() != len(sched.Events)-wantDropped {
		t.Fatalf("Injected() = %d, want %d", in.Injected(), len(sched.Events)-wantDropped)
	}
	// Handlers fire in timeline order with the original payloads.
	var want []Event
	for _, ev := range sched.Events {
		if ev.Kind != KindReplicaCrash {
			want = append(want, ev)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatched events diverge from schedule:\n%+v\nvs\n%+v", got, want)
	}
	if in.ScheduledDowntime() != sched.Downtime() {
		t.Fatalf("ScheduledDowntime() = %v, want %v", in.ScheduledDowntime(), sched.Downtime())
	}
}

func TestInjectorPastEventsClamp(t *testing.T) {
	s := sim.New()
	s.PostAfter(units.Seconds(10), func() {})
	s.RunAll(1)
	sched := Schedule{Events: []Event{{At: units.Seconds(1), Kind: KindEngineStall, Target: TargetDecode, Stall: units.FromMs(1)}}}
	in := NewInjector(s, sched)
	fired := sim.Time(-1)
	in.Handle(KindEngineStall, func(Event) { fired = s.Now() })
	in.Arm()
	s.RunAll(1 << 10)
	if fired != s.Now() || fired < units.Seconds(10) {
		t.Fatalf("past event fired at %v, want clamp to arm time 10s", fired)
	}
}

func TestInjectorArmTwicePanics(t *testing.T) {
	in := NewInjector(sim.New(), Schedule{})
	in.Arm()
	defer func() {
		if recover() == nil {
			t.Fatal("second Arm did not panic")
		}
	}()
	in.Arm()
}

func TestHandleAfterArmPanics(t *testing.T) {
	in := NewInjector(sim.New(), Schedule{})
	in.Arm()
	defer func() {
		if recover() == nil {
			t.Fatal("Handle after Arm did not panic")
		}
	}()
	in.Handle(KindSMDegrade, func(Event) {})
}

func TestGenerateKVShrinkEvents(t *testing.T) {
	cfg := testConfig()
	cfg.DegradeRate, cfg.StallRate, cfg.CrashRate = 0, 0, 0
	cfg.KVShrinkRate = 0.5
	s := Generate(cfg)
	if len(s.Events) == 0 {
		t.Fatal("no kv-shrink events over a 60s horizon at 0.5/s")
	}
	for i, ev := range s.Events {
		if ev.Kind != KindKVShrink {
			t.Fatalf("event %d: kind %q, want kv-shrink only", i, ev.Kind)
		}
		if ev.KVFraction <= 0 || ev.KVFraction > 0.9 {
			t.Fatalf("event %d: fraction %v outside (0, 0.9]", i, ev.KVFraction)
		}
		if ev.Replica < 0 || ev.Replica >= cfg.Replicas {
			t.Fatalf("event %d: replica %d outside fleet of %d", i, ev.Replica, cfg.Replicas)
		}
		if ev.Duration <= 0 {
			t.Fatalf("event %d: non-transient shrink duration %v", i, ev.Duration)
		}
	}
	// Downtime is the crude disrupted-time sum, so shrink durations count.
	if s.Downtime() <= 0 {
		t.Fatalf("kv-shrink-only schedule reports downtime %v", s.Downtime())
	}
}

func TestInjectorScheduleAccessor(t *testing.T) {
	sched := Schedule{Events: []Event{{At: units.Seconds(1), Kind: KindKVShrink, KVFraction: 0.5}}}
	in := NewInjector(sim.New(), sched)
	if !reflect.DeepEqual(in.Schedule(), sched) {
		t.Fatalf("Schedule() = %+v, want %+v", in.Schedule(), sched)
	}
}
