package pressure

import (
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/timeline"
	"repro/internal/units"
)

func newController(blocks int, cfg Config) (*Controller, *kvcache.Pool) {
	p := kvcache.NewPool(blocks, 16)
	est := estimator.New(model.Llama31_8B(), gpusim.A100(), estimator.DefaultParams())
	return New(p, est, model.Llama31_8B().KVBytesPerToken(), cfg), p
}

func TestDefaultsFillZeroFields(t *testing.T) {
	c, _ := newController(100, Config{})
	got := c.Config()
	want := DefaultConfig()
	if got != want {
		t.Fatalf("effective config %+v, want defaults %+v", got, want)
	}
	// Explicit fields survive defaulting.
	c2, _ := newController(100, Config{MaxPreemptions: 7})
	if c2.Config().MaxPreemptions != 7 || c2.Config().MaxDeferrals != want.MaxDeferrals {
		t.Fatalf("partial config mangled: %+v", c2.Config())
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"nil pool": func() {
			New(nil, nil, 0, Config{})
		},
		"inverted watermarks": func() {
			p := kvcache.NewPool(10, 16)
			New(p, nil, 0, Config{LowWatermark: 0.9, HighWatermark: 0.8})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTierStrings(t *testing.T) {
	if TierAdmit.String() != "admit" || TierDefer.String() != "defer" || TierShed.String() != "shed" {
		t.Fatal("tier names wrong")
	}
	if Tier(99).String() != "unknown" {
		t.Fatal("out-of-range tier name")
	}
	if Recompute.String() != "recompute" || Retransfer.String() != "retransfer" {
		t.Fatal("recovery names wrong")
	}
}

func TestAdmitBelowHighWatermark(t *testing.T) {
	c, _ := newController(100, Config{})
	// Empty pool, 50% projected: admit.
	if tier := c.AdmitPrio(0, "r1", 50*16, 0, PrioPremium); tier != TierAdmit {
		t.Fatalf("tier = %v, want admit", tier)
	}
	if c.Pressured() {
		t.Fatal("admit latched pressure")
	}
}

func TestDeferAboveHighWatermarkLatches(t *testing.T) {
	c, p := newController(100, Config{})
	if _, err := p.Allocate("held", 85*16, "decode"); err != nil {
		t.Fatal(err)
	}
	// 85 used + 10 needed = 95% projected > 90% high watermark.
	if tier := c.AdmitPrio(0, "r1", 10*16, 0, PrioPremium); tier != TierDefer {
		t.Fatalf("tier = %v, want defer", tier)
	}
	if !c.Pressured() {
		t.Fatal("defer above high watermark did not latch")
	}
	// Once latched, even a small request that projects between low and
	// high defers: 85 used, 2 needed → 87% > 80% low watermark.
	if tier := c.AdmitPrio(0, "r2", 2*16, 0, PrioPremium); tier != TierDefer {
		t.Fatalf("latched tier = %v, want defer", tier)
	}
	if c.Metrics().AdmissionsDeferred != 2 {
		t.Fatalf("deferred = %d, want 2", c.Metrics().AdmissionsDeferred)
	}
}

func TestHysteresisClearsBelowLow(t *testing.T) {
	c, p := newController(100, Config{})
	held, _ := p.Allocate("held", 85*16, "decode")
	c.AdmitPrio(0, "r1", 10*16, 0, PrioPremium) // latch
	if !c.Pressured() {
		t.Fatal("not latched")
	}
	p.MustFree(held) // occupancy back to 0 < low watermark
	if tier := c.AdmitPrio(0, "r2", 85*16, 0, PrioPremium); tier != TierAdmit {
		t.Fatalf("tier = %v, want admit after latch cleared", tier)
	}
	if c.Pressured() {
		t.Fatal("latch survived occupancy drop")
	}
}

func TestShedWhenRequestCanNeverFit(t *testing.T) {
	c, _ := newController(10, Config{})
	if tier := c.AdmitPrio(0, "big", 11*16, 0, PrioPremium); tier != TierShed {
		t.Fatalf("tier = %v, want shed for request larger than pool", tier)
	}
	if c.Metrics().Shed != 1 {
		t.Fatalf("shed counter = %d", c.Metrics().Shed)
	}
}

func TestShedAfterDeferralBudget(t *testing.T) {
	c, _ := newController(100, Config{MaxDeferrals: 3})
	if tier := c.AdmitPrio(0, "r", 10*16, 2, PrioPremium); tier != TierAdmit {
		t.Fatalf("tier = %v, want admit under budget", tier)
	}
	if tier := c.AdmitPrio(0, "r", 10*16, 3, PrioPremium); tier != TierShed {
		t.Fatalf("tier = %v, want shed at budget", tier)
	}
}

func TestCriticalOccupancyHalvesDeferralBudget(t *testing.T) {
	c, p := newController(100, Config{MaxDeferrals: 8})
	if _, err := p.Allocate("held", 98*16, "decode"); err != nil {
		t.Fatal(err)
	}
	// 98% occupancy > 97% critical: budget halves to 4.
	if tier := c.AdmitPrio(0, "r", 16, 4, PrioPremium); tier != TierShed {
		t.Fatalf("tier = %v, want shed with halved budget", tier)
	}
}

func TestDeferWhenPhysicallyFullEvenBelowWatermark(t *testing.T) {
	// A shrink can leave occupancy formally below the watermark while no
	// blocks are actually free; the gate must still defer.
	c, p := newController(100, Config{})
	held, _ := p.Allocate("held", 50*16, "decode")
	p.Shrink(50) // all free blocks retired; used 50 of total 50 = 100%
	_ = held
	if tier := c.AdmitPrio(0, "r", 16, 0, PrioPremium); tier != TierDefer {
		t.Fatalf("tier = %v, want defer with zero free blocks", tier)
	}
}

func TestPhysicalDeficit(t *testing.T) {
	c, p := newController(100, Config{})
	if _, err := p.Allocate("held", 90*16, "decode"); err != nil {
		t.Fatal(err)
	}
	// Fits in the 10 free blocks: no preemption even at 90% occupancy —
	// watermark pressure relieves itself by waiting.
	if d := c.PhysicalDeficit(10 * 16); d != 0 {
		t.Fatalf("deficit = %d, want 0 when allocation fits", d)
	}
	// 20 blocks needed, 10 free: preemption must cover the shortfall.
	if d := c.PhysicalDeficit(20 * 16); d != 10 {
		t.Fatalf("deficit = %d, want 10", d)
	}
}

func TestPhysicalDeficitZeroWhileDraining(t *testing.T) {
	c, p := newController(100, Config{})
	held, _ := p.Allocate("held", 80*16, "decode")
	p.Shrink(40) // 20 free retire now, 20 more owed by future frees
	if p.RetirePending() == 0 {
		t.Fatal("shrink left no retirement debt")
	}
	// Mid-drain, evictions pay the retirement debt, not the admission:
	// deficit must be zero however large the request.
	if d := c.PhysicalDeficit(50 * 16); d != 0 {
		t.Fatalf("deficit = %d, want 0 while drain pending", d)
	}
	p.MustFree(held) // debt settles
	if p.RetirePending() != 0 {
		t.Fatal("drain did not settle")
	}
	// Pool settled at 60 blocks, all free: a 70-block request is short 10.
	if d := c.PhysicalDeficit(70 * 16); d != 10 {
		t.Fatalf("deficit = %d, want 10 after drain", d)
	}
}

func TestCanReadmit(t *testing.T) {
	c, p := newController(100, Config{})
	// Empty pool: a victim re-reserving half the pool is fine.
	if !c.CanReadmit(50 * 16) {
		t.Fatal("readmit refused in empty pool")
	}
	held, _ := p.Allocate("held", 85*16, "decode")
	// Physically fits (15 free ≥ 10 needed) but 95% projected breaches
	// the 90% high watermark: readmission would re-create the pressure
	// that evicted the victim.
	if c.CanReadmit(10 * 16) {
		t.Fatal("readmit crossed high watermark")
	}
	// Landing exactly at the watermark is allowed: 85 + 5 = 90%.
	if !c.CanReadmit(5 * 16) {
		t.Fatal("readmit refused at high watermark")
	}
	p.MustFree(held)
	p.Shrink(95) // 5 blocks remain
	// Physically impossible: 10 blocks into a 5-block pool.
	if c.CanReadmit(10 * 16) {
		t.Fatal("readmit beyond pool capacity")
	}
}

func TestShouldShedVictim(t *testing.T) {
	c, _ := newController(10, Config{MaxPreemptions: 2})
	if c.ShouldShedVictim(2) {
		t.Fatal("shed at K")
	}
	if !c.ShouldShedVictim(3) {
		t.Fatal("no shed past K")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	c, _ := newController(10, Config{BackoffBase: units.FromMs(2), BackoffCap: units.FromMs(10)})
	if got := c.Backoff(1); got != units.FromMs(2) {
		t.Fatalf("attempt 1 = %v", got)
	}
	if got := c.Backoff(2); got != units.FromMs(4) {
		t.Fatalf("attempt 2 = %v", got)
	}
	if got := c.Backoff(5); got != units.FromMs(10) {
		t.Fatalf("attempt 5 = %v, want cap", got)
	}
	if got := c.Backoff(0); got != units.FromMs(2) {
		t.Fatalf("attempt 0 = %v, want base", got)
	}
	if got := c.Backoff(1000); got != units.FromMs(10) {
		t.Fatalf("huge attempt = %v, want cap", got)
	}
}

func TestChooseRecovery(t *testing.T) {
	// Large context, fast host link, no buffer latency: retransfer wins
	// (268 MB at 25 GB/s ≈ 11 ms vs. a full 2048-token prefill).
	c, _ := newController(1000, Config{})
	if r := c.ChooseRecovery(2048, 108, 0); r != Retransfer {
		t.Fatalf("recovery = %v, want retransfer", r)
	}
	// A second of buffer latency dwarfs any prefill: recompute wins.
	if r := c.ChooseRecovery(2048, 108, units.Seconds(1)); r != Recompute {
		t.Fatalf("recovery = %v, want recompute with huge latency", r)
	}
	// Crippled host link: recompute wins.
	slow, _ := newController(1000, Config{HostBandwidth: units.BytesPerSec(1e3)})
	if r := slow.ChooseRecovery(2048, 108, 0); r != Recompute {
		t.Fatalf("recovery = %v, want recompute on slow link", r)
	}
	// No estimator: always recompute.
	p := kvcache.NewPool(10, 16)
	noEst := New(p, nil, 0, Config{})
	if r := noEst.ChooseRecovery(2048, 108, 0); r != Recompute {
		t.Fatalf("recovery = %v, want recompute without estimator", r)
	}
}

func TestRetransferAccounting(t *testing.T) {
	c, _ := newController(10, Config{})
	perTok := model.Llama31_8B().KVBytesPerToken()
	if got, want := c.RetransferBytes(100), units.Scale(perTok, 100); got != want {
		t.Fatalf("bytes = %v, want %v", got, want)
	}
	if got, want := c.RetransferTime(100), units.Scale(perTok, 100).Div(DefaultConfig().HostBandwidth); got != want {
		t.Fatalf("time = %v, want %v", got, want)
	}
	if c.KVBytesPerToken() != perTok {
		t.Fatal("KVBytesPerToken accessor")
	}
}

func TestRecordCountersAndTimeline(t *testing.T) {
	c, p := newController(100, Config{})
	tl := timeline.New(0)
	c.SetTimeline(tl)

	held, _ := p.Allocate("v", 50*16, "decode")
	c.RecordPreemption(units.FromMs(1), "v", held.Blocks(), 1)
	c.RecordRecovery(units.FromMs(2), "v", Recompute, 800)
	c.RecordRecovery(units.FromMs(3), "v", Retransfer, 800)
	c.RecordShed(units.FromMs(4), "v", "preempt-budget")
	c.RecordKVShrink(units.FromMs(5), 10, false)
	c.RecordKVShrink(units.FromMs(6), 10, true)
	c.AdmitPrio(units.FromMs(7), "r", 16, 0, PrioPremium)

	m := c.Metrics()
	if m.Preemptions != 1 || m.Recomputes != 1 || m.RecomputedTokens != 800 ||
		m.Retransfers != 1 || m.RetransferredBytes != c.RetransferBytes(800) ||
		m.Shed != 1 || m.KVShrinks != 1 {
		t.Fatalf("counters: %+v", m)
	}
	if m.PeakOccupancy < 0.49 || m.PeakOccupancy > 0.51 {
		t.Fatalf("peak occupancy = %v, want ≈0.50", m.PeakOccupancy)
	}
	// One instant per Record* call plus the admission decision.
	if tl.Len() != 7 {
		t.Fatalf("timeline events = %d, want 7", tl.Len())
	}
	names := map[string]bool{}
	for _, e := range tl.Events() {
		if e.Lane != "pressure" {
			t.Fatalf("event on lane %q", e.Lane)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"admission", "preempt", "recover", "shed", "kv-shrink", "kv-restore"} {
		if !names[want] {
			t.Fatalf("missing %q instant (have %v)", want, names)
		}
	}
}

func TestNilTimelineIsSilent(t *testing.T) {
	c, _ := newController(100, Config{})
	// No recorder attached: all paths must still work.
	c.RecordPreemption(0, "v", 1, 1)
	c.RecordRecovery(0, "v", Retransfer, 10)
	c.RecordShed(0, "v", "x")
	c.RecordKVShrink(0, 1, false)
	if tier := c.AdmitPrio(0, "r", 16, 0, PrioPremium); tier != TierAdmit {
		t.Fatalf("tier = %v", tier)
	}
	if c.Metrics().Preemptions != 1 {
		t.Fatal("counters not kept without timeline")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := c0()
	b := c0()
	b.PeakOccupancy = 0.9
	a.PeakOccupancy = 0.5
	a.Add(b)
	if a.AdmissionsDeferred != 2 || a.Preemptions != 2 || a.Recomputes != 2 ||
		a.RecomputedTokens != 2 || a.Retransfers != 2 || a.RetransferredBytes != 2 ||
		a.Shed != 2 || a.KVShrinks != 2 {
		t.Fatalf("sum: %+v", a)
	}
	if a.PeakOccupancy != 0.9 {
		t.Fatalf("peak = %v, want max 0.9", a.PeakOccupancy)
	}
}

// c0 returns a Pressure with every additive counter set to 1.
func c0() (p metrics.Pressure) {
	p.AdmissionsDeferred = 1
	p.Preemptions = 1
	p.Recomputes = 1
	p.RecomputedTokens = 1
	p.Retransfers = 1
	p.RetransferredBytes = 1
	p.Shed = 1
	p.KVShrinks = 1
	return p
}

func TestDecideUnknownTierUnreachable(t *testing.T) {
	// Documentation test: decide only returns the three named tiers; the
	// "unknown" string exists for defensive formatting only.
	if !strings.Contains(Tier(42).String(), "unknown") {
		t.Fatal("defensive tier name missing")
	}
}

// --- priority admission (AdmitPrio) ------------------------------------

func TestPriorityMarginTightensWatermark(t *testing.T) {
	// Default high watermark 0.90, margin 0.04: effective limits are
	// 0.90 / 0.86 / 0.82 for premium / standard / best-effort. A
	// projection landing between two limits admits the higher class and
	// defers the lower.
	cases := []struct {
		projected int // blocks, out of 100
		admits    []Prio
		defers    []Prio
	}{
		{88, []Prio{PrioPremium}, []Prio{PrioStandard, PrioBestEffort}},
		{84, []Prio{PrioPremium, PrioStandard}, []Prio{PrioBestEffort}},
		{80, []Prio{PrioPremium, PrioStandard, PrioBestEffort}, nil},
	}
	for _, tc := range cases {
		for _, prio := range tc.admits {
			c, _ := newController(100, Config{})
			if tier := c.AdmitPrio(0, "r", tc.projected*16, 0, prio); tier != TierAdmit {
				t.Errorf("projected %d%%: prio %d = %v, want admit", tc.projected, prio, tier)
			}
		}
		for _, prio := range tc.defers {
			c, _ := newController(100, Config{})
			if tier := c.AdmitPrio(0, "r", tc.projected*16, 0, prio); tier != TierDefer {
				t.Errorf("projected %d%%: prio %d = %v, want defer", tc.projected, prio, tier)
			}
		}
	}
}

func TestPriorityHalvesDeferralBudget(t *testing.T) {
	// MaxDeferrals 8: budgets are 8 / 4 / 2 for premium / standard /
	// best-effort. At each class's budget the gate sheds; one under, it
	// still admits (pool is empty, so the watermark is no obstacle).
	budgets := map[Prio]int{PrioPremium: 8, PrioStandard: 4, PrioBestEffort: 2}
	for prio, budget := range budgets {
		c, _ := newController(100, Config{MaxDeferrals: 8})
		if tier := c.AdmitPrio(0, "r", 16, budget-1, prio); tier != TierAdmit {
			t.Errorf("prio %d one under budget: %v, want admit", prio, tier)
		}
		if tier := c.AdmitPrio(0, "r", 16, budget, prio); tier != TierShed {
			t.Errorf("prio %d at budget %d: %v, want shed", prio, budget, tier)
		}
	}
}

func TestDeferBudget(t *testing.T) {
	c, p := newController(100, Config{MaxDeferrals: 8})
	for prio, want := range map[Prio]int{PrioPremium: 8, PrioStandard: 4, PrioBestEffort: 2} {
		if got := c.DeferBudget(prio); got != want {
			t.Errorf("DeferBudget(%d) = %d, want %d", prio, got, want)
		}
	}
	// Above the critical watermark every budget halves again.
	if _, err := p.Allocate("h", 98*16, "decode"); err != nil {
		t.Fatal(err)
	}
	for prio, want := range map[Prio]int{PrioPremium: 4, PrioStandard: 2, PrioBestEffort: 1} {
		if got := c.DeferBudget(prio); got != want {
			t.Errorf("critical DeferBudget(%d) = %d, want %d", prio, got, want)
		}
	}
}
