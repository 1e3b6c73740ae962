package qos

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/pressure"
	"repro/internal/timeline"
	"repro/internal/units"
)

var baseSLO = metrics.SLO{NormTTFTMs: 1.5, TPOTMs: 200}

func newTest() *Controller {
	return New(baseSLO, 256, 16384)
}

func TestClassMapping(t *testing.T) {
	cases := []struct {
		tenant string
		class  Class
		prio   pressure.Prio
	}{
		{"premium", Premium, pressure.PrioPremium},
		{"standard", Standard, pressure.PrioStandard},
		{"best-effort", BestEffort, pressure.PrioBestEffort},
		{"", Standard, pressure.PrioStandard},
		{"unknown-tag", Standard, pressure.PrioStandard},
	}
	for _, c := range cases {
		if got := ClassOf(c.tenant); got != c.class {
			t.Errorf("ClassOf(%q) = %v, want %v", c.tenant, got, c.class)
		}
		if got := ClassOf(c.tenant).Prio(); got != c.prio {
			t.Errorf("ClassOf(%q).Prio() = %v, want %v", c.tenant, got, c.prio)
		}
	}
	for _, class := range []Class{Premium, Standard, BestEffort} {
		if ClassOf(class.String()) != class {
			t.Errorf("ClassOf(%v.String()) does not round-trip", class)
		}
	}
}

func TestNewCapsAndClasses(t *testing.T) {
	c := newTest()
	if c.DecodeCap() != 256 || c.PrefillTokenBudget() != 16384 {
		t.Fatalf("caps not initialized to engine maxes: %d/%d", c.DecodeCap(), c.PrefillTokenBudget())
	}
	// SLOFor scales both targets by the class scale.
	slo := SLOFor(BestEffort, baseSLO)
	if slo.NormTTFTMs != baseSLO.NormTTFTMs*4 || slo.TPOTMs != baseSLO.TPOTMs*4 {
		t.Fatalf("best-effort SLO not 4x base: %+v", slo)
	}
	if SLOFor(Premium, baseSLO) != baseSLO {
		t.Fatalf("premium SLO must be the base targets")
	}
	// Weight is the reciprocal scale: premium full strength.
	if w := c.WeightOf(Premium); w != 1 {
		t.Fatalf("premium weight = %v, want 1", w)
	}
	if w := c.WeightOf(BestEffort); w != 0.25 {
		t.Fatalf("best-effort weight = %v, want 0.25", w)
	}
}

func TestNewPanicsOnInvalidCaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero caps must panic")
		}
	}()
	New(baseSLO, 0, 0)
}

// step advances the controller one full window with a constant violation
// ratio v observed at occupancy occ, and returns the decode cap after
// the boundary decision.
func step(c *Controller, now *units.Seconds, v, occ float64) int {
	c.Tick(*now, occ) // first call arms the window
	c.observeAt(*now, v, occ)
	*now += window
	c.Tick(*now, occ)
	return c.DecodeCap()
}

// observeAt feeds one synthetic weighted-violation observation. It uses
// ObserveStep with a step duration chosen so stepMs/TPOT = v, which is
// exactly the premium-weighted ratio the controller folds in.
func (c *Controller) observeAt(now units.Seconds, v, occ float64) {
	c.ObserveStep(now, 1, units.FromMs(v*c.base.TPOTMs), occ)
}

func TestDecreaseOnViolation(t *testing.T) {
	c := newTest()
	now := units.Seconds(0)
	before := c.DecodeCap()
	after := step(c, &now, 2.0, 0.5) // gross violation
	if after >= before {
		t.Fatalf("violation did not shrink decode cap: %d -> %d", before, after)
	}
	wantD := int(float64(before) * decreaseFactor)
	if after != wantD {
		t.Fatalf("decode cap = %d, want %d", after, wantD)
	}
	wantP := int(16384 * decreaseFactor)
	if got := c.PrefillTokenBudget(); got != wantP {
		t.Fatalf("prefill budget = %d, want %d", got, wantP)
	}
	m := c.Metrics()
	if m.Decreases != 1 || m.Increases != 0 || m.Decisions != 1 {
		t.Fatalf("unexpected decision accounting: %+v", m)
	}
}

func TestIncreaseNeedsSlackAndHeadroom(t *testing.T) {
	// Start from a reduced cap so there is room to grow.
	c := newTest()
	now := units.Seconds(0)
	step(c, &now, 2.0, 0.5) // shrink once; cooldown armed
	shrunk := c.DecodeCap()

	// Slack with occupancy above the headroom floor: hold forever.
	for i := 0; i < 5; i++ {
		if got := step(c, &now, 0.2, 0.95); got != shrunk {
			t.Fatalf("cap grew at %v occupancy: %d -> %d", 0.95, shrunk, got)
		}
	}
	// Slack with headroom: cooldown has long expired, additive growth.
	grown := step(c, &now, 0.2, 0.5)
	if grown != shrunk+decodeStep {
		t.Fatalf("additive increase: got %d, want %d", grown, shrunk+decodeStep)
	}
}

func TestCapsClampToBounds(t *testing.T) {
	c := newTest()
	now := units.Seconds(0)
	// Hammer violations: caps must floor at the minimums, never below.
	for i := 0; i < 50; i++ {
		step(c, &now, 5.0, 0.99)
	}
	if c.DecodeCap() != minDecodeBatch {
		t.Fatalf("decode cap floored at %d, want %d", c.DecodeCap(), minDecodeBatch)
	}
	if c.PrefillTokenBudget() != minPrefillTokens {
		t.Fatalf("prefill budget floored at %d, want %d", c.PrefillTokenBudget(), minPrefillTokens)
	}
	// Sustained slack: caps must ceiling at the engine maxes, never above.
	for i := 0; i < 100; i++ {
		step(c, &now, 0.1, 0.2)
	}
	if c.DecodeCap() != 256 || c.PrefillTokenBudget() != 16384 {
		t.Fatalf("caps did not return to maxes: %d/%d", c.DecodeCap(), c.PrefillTokenBudget())
	}
}

// TestCapMonotoneInSlack: a controller that observed strictly worse
// latency never ends with a larger batch cap than one that observed
// better latency, all else equal.
func TestCapMonotoneInSlack(t *testing.T) {
	ratios := []float64{0.3, 0.8, 1.0, 1.3, 2.0, 4.0}
	prevCap, prevBudget := -1, -1
	for i, v := range ratios {
		c := newTest()
		now := units.Seconds(0)
		for k := 0; k < 10; k++ {
			step(c, &now, v, 0.5)
		}
		if i > 0 && (c.DecodeCap() > prevCap || c.PrefillTokenBudget() > prevBudget) {
			t.Fatalf("violation %v ended with caps %d/%d above the better-latency run's %d/%d",
				v, c.DecodeCap(), c.PrefillTokenBudget(), prevCap, prevBudget)
		}
		prevCap, prevBudget = c.DecodeCap(), c.PrefillTokenBudget()
	}
}

// TestHysteresisSquareWave: a load alternating between violation and
// slack every window cannot make the caps oscillate every window — the
// post-decrease cooldown blocks the immediate re-increase, so direction
// flips are at most one per (1 + cooldownWindows) windows.
func TestHysteresisSquareWave(t *testing.T) {
	c := newTest()
	now := units.Seconds(0)
	const windows = 40
	flips, dirChanges := 0, 0
	prev, prevDir := c.DecodeCap(), 0
	for i := 0; i < windows; i++ {
		v := 0.2
		if i%2 == 0 {
			v = 1.5
		}
		cur := step(c, &now, v, 0.5)
		dir := 0
		if cur > prev {
			dir = 1
		} else if cur < prev {
			dir = -1
		}
		if dir != 0 {
			flips++
			if prevDir != 0 && dir != prevDir {
				dirChanges++
			}
			prevDir = dir
		}
		prev = cur
	}
	maxFlips := windows / (1 + cooldownWindows)
	if flips > maxFlips {
		t.Fatalf("square wave produced %d cap changes over %d windows (hysteresis bound %d)",
			flips, windows, maxFlips)
	}
	if dirChanges > windows/3 {
		t.Fatalf("caps oscillated: %d direction changes over %d windows", dirChanges, windows)
	}
}

// TestDeadBandHolds: a wave entirely inside the dead band changes
// nothing, ever.
func TestDeadBandHolds(t *testing.T) {
	c := newTest()
	now := units.Seconds(0)
	for i := 0; i < 20; i++ {
		v := 0.95
		if i%2 == 0 {
			v = 1.05
		}
		if got := step(c, &now, v, 0.5); got != 256 {
			t.Fatalf("in-dead-band load moved the cap to %d", got)
		}
	}
	if m := c.Metrics(); m.Increases != 0 || m.Decreases != 0 {
		t.Fatalf("in-dead-band load took AIMD steps: %+v", m)
	}
}

// TestEmptyWindowHolds: windows with no observations hold the caps even
// under stale violation state.
func TestEmptyWindowHolds(t *testing.T) {
	c := newTest()
	now := units.Seconds(0)
	step(c, &now, 2.0, 0.5)
	shrunk := c.DecodeCap()
	// Advance many empty windows: no traffic, no movement.
	for i := 0; i < 5; i++ {
		now += window
		c.Tick(now, 0.1)
	}
	if c.DecodeCap() != shrunk {
		t.Fatalf("empty windows moved the cap: %d -> %d", shrunk, c.DecodeCap())
	}
}

func TestObserveCompletionWeighting(t *testing.T) {
	mk := func(tenant string, ttftMs float64) metrics.Request {
		// 1000-token input: NormTTFTMs == ttftMs/1000 per token.
		return metrics.Request{
			ID: "r", Tenant: tenant, InputTokens: 1000, OutputTokens: 1,
			Arrival: 0, PrefillStart: 0,
			FirstToken: units.FromMs(ttftMs), Finish: units.FromMs(ttftMs),
		}
	}
	// A best-effort request at 4x the base target is exactly on its own
	// scaled target, and its weighted ratio is 0.25 — deep in the dead
	// band's slack side, so it must not trigger a decrease.
	c := newTest()
	now := units.Seconds(0)
	c.Tick(now, 0.5)
	c.ObserveCompletion(now, mk("best-effort", 4*baseSLO.NormTTFTMs*1000), 0.5)
	now += window
	c.Tick(now, 0.5)
	if c.Metrics().Decreases != 0 {
		t.Fatal("on-target best-effort completion triggered a decrease")
	}
	// The same absolute latency from a premium tenant is a 4x violation
	// at full weight: decrease.
	c2 := newTest()
	now = 0
	c2.Tick(now, 0.5)
	c2.ObserveCompletion(now, mk("premium", 4*baseSLO.NormTTFTMs*1000), 0.5)
	now += window
	c2.Tick(now, 0.5)
	if c2.Metrics().Decreases != 1 {
		t.Fatal("violating premium completion did not trigger a decrease")
	}
	if c2.Accounting().Completed[Premium] != 1 {
		t.Fatal("completion not accounted to the premium class")
	}
}

func TestAccountingConserves(t *testing.T) {
	c := newTest()
	c.AddPrefill(Premium, 100)
	c.AddPrefill(BestEffort, 50)
	c.AddDecode(Standard)
	c.AddDecode(Standard)
	c.RecordShed(BestEffort)
	a := c.Accounting()
	if a.TotalPrefillTokens() != 150 || a.TotalDecodeTokens() != 2 {
		t.Fatalf("totals wrong: %+v", a)
	}
	var sum Accounting
	sum.Add(a)
	sum.Add(a)
	if sum.TotalPrefillTokens() != 300 || sum.Shed[BestEffort] != 2 {
		t.Fatalf("Add wrong: %+v", sum)
	}
}

// TestControllerDeterminism: identical observation sequences produce
// identical decision trajectories and identical timeline instants.
func TestControllerDeterminism(t *testing.T) {
	run := func() (Metrics, []timeline.Event) {
		rec := timeline.New(1024)
		c := newTest()
		c.SetTimeline(rec)
		now := units.Seconds(0)
		for i := 0; i < 30; i++ {
			v := 0.3 + float64(i%7)*0.35
			occ := 0.3 + float64(i%5)*0.12
			step(c, &now, v, occ)
		}
		return c.Metrics(), rec.Events()
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 {
		t.Fatalf("metrics diverged: %+v vs %+v", m1, m2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("timeline lengths diverged: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		a, b := e1[i], e2[i]
		if a.Lane != b.Lane || a.Name != b.Name || a.Start != b.Start || len(a.Args) != len(b.Args) {
			t.Fatalf("timeline event %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if m1.Decisions == 0 {
		t.Fatal("no decisions recorded")
	}
}
