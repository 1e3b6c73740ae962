package gpusim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// testTable builds a small valid latency table: two operators, gemm with
// three token supports and copy with one.
func testTable() *LatencyTable {
	return &LatencyTable{
		RefSMs: 8,
		Ops: map[string][]OpSupport{
			"gemm": {
				{Tokens: 64, Q: []units.Seconds{1e-4, 2e-4, 3e-4}},
				{Tokens: 256, Q: []units.Seconds{2e-4, 4e-4, 6e-4}},
				{Tokens: 1024, Q: []units.Seconds{8e-4, 1.6e-3, 2.4e-3}},
			},
			"copy": {
				{Tokens: 128, Q: []units.Seconds{5e-5, 1e-4, 2e-4}},
			},
		},
	}
}

func TestLatencyTableValidate(t *testing.T) {
	if err := testTable().Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LatencyTable)
		want string
	}{
		{"zero refsms", func(tb *LatencyTable) { tb.RefSMs = 0 }, "non-positive RefSMs"},
		{"no ops", func(tb *LatencyTable) { tb.Ops = map[string][]OpSupport{} }, "no operators"},
		{"empty supports", func(tb *LatencyTable) { tb.Ops["gemm"] = nil }, "no supports"},
		{"tokens not ascending", func(tb *LatencyTable) {
			tb.Ops["gemm"][1].Tokens = 64
		}, "not ascending"},
		{"grid size mismatch", func(tb *LatencyTable) {
			tb.Ops["gemm"][1].Q = tb.Ops["gemm"][1].Q[:2]
		}, "quantile grid size"},
		{"negative quantile", func(tb *LatencyTable) {
			tb.Ops["gemm"][0].Q[0] = -1
		}, "quantile 0 is"},
		{"nan quantile", func(tb *LatencyTable) {
			tb.Ops["gemm"][0].Q[1] = units.Seconds(nan())
		}, "quantile 1 is"},
		{"descending grid", func(tb *LatencyTable) {
			tb.Ops["gemm"][0].Q[2] = 1e-5
		}, "below quantile"},
	}
	for _, c := range cases {
		tb := testTable()
		c.mut(tb)
		err := tb.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	var nilTable *LatencyTable
	if err := nilTable.Validate(); err == nil {
		t.Error("nil table validated")
	}
}

func nan() float64 { zero := 0.0; return zero / zero }

// TestSampleSupportContainment: every draw lies inside the operator's
// fitted [min, max] support, for u across and beyond [0,1] and token
// counts below, between, at, and above the supports.
func TestSampleSupportContainment(t *testing.T) {
	tb := testTable()
	for op, sup := range map[string][]OpSupport{"gemm": tb.Ops["gemm"], "copy": tb.Ops["copy"]} {
		lo := sup[0].Q[0]
		hi := sup[len(sup)-1].Q[len(sup[0].Q)-1]
		for _, tokens := range []int{1, 63, 64, 100, 256, 700, 1024, 5000} {
			for _, u := range []float64{-0.5, 0, 0.1, 0.25, 0.5, 0.9, 0.999, 1, 1.5} {
				got, ok := tb.Sample(op, tokens, u)
				if !ok {
					t.Fatalf("Sample(%q) not found", op)
				}
				if got < lo || got > hi {
					t.Errorf("Sample(%q, %d, %v) = %v outside support [%v, %v]", op, tokens, u, got, lo, hi)
				}
			}
		}
	}
	if _, ok := tb.Sample("absent", 128, 0.5); ok {
		t.Error("Sample on absent operator reported ok")
	}
}

// TestSampleMonotoneInTokens: at any fixed quantile draw u, sampled
// latency never decreases as the token coordinate grows — the isotonic
// invariant the calibration fit enforces across supports.
func TestSampleMonotoneInTokens(t *testing.T) {
	tb := testTable()
	for _, u := range []float64{0, 0.2, 0.5, 0.77, 1} {
		prev := units.Seconds(0)
		for tokens := 1; tokens <= 2048; tokens += 7 {
			got, ok := tb.Sample("gemm", tokens, u)
			if !ok {
				t.Fatal("gemm missing")
			}
			if got < prev {
				t.Fatalf("Sample(gemm, %d, %v) = %v < previous %v: not monotone in tokens", tokens, u, got, prev)
			}
			prev = got
		}
	}
}

// runSampledScenario launches a fixed mixed workload on a fresh device
// with a sampled backend and returns every kernel record.
func runSampledScenario(seed int64) []KernelRecord {
	s := sim.New()
	g := New(s, TestGPU())
	g.SetBackend(NewSampledBackend(testTable(), seed))
	var recs []KernelRecord
	record := func(r KernelRecord) { recs = append(recs, r) }
	a := g.NewStream(g.FullMask())
	b := g.NewStream(g.FullMask().Prefix(4))
	for i := 0; i < 6; i++ {
		g.Launch(a, Kernel{Name: "gemm", FLOPs: 1e9, Bytes: 1e6, Grid: 8, Tokens: 64 << i}, record)
		g.Launch(b, Kernel{Name: "copy", Bytes: 1e7, Tokens: 128}, record)
	}
	s.RunAll(10000)
	return recs
}

// TestSampledBackendReplay: identical seeds replay identical kernel
// timings; a different seed moves them. Exercised under -race by ci.sh.
func TestSampledBackendReplay(t *testing.T) {
	a, b := runSampledScenario(7), runSampledScenario(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed replay diverged:\n%v\n%v", a, b)
	}
	c := runSampledScenario(8)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical records — draws unused?")
	}
}

// TestSampledBackendMiss: operators absent from the table fall back to
// the analytic rate (scale 1) and are counted; the draw stream still
// advances so table contents cannot shift later kernels' draws.
func TestSampledBackendMiss(t *testing.T) {
	run := func(backend LatencyBackend) KernelRecord {
		s := sim.New()
		g := New(s, TestGPU())
		g.SetBackend(backend)
		st := g.NewStream(g.FullMask())
		var rec KernelRecord
		g.Launch(st, Kernel{Name: "unknown-op", FLOPs: 1e9, Bytes: 1e6, Grid: 8, Tokens: 64}, func(r KernelRecord) { rec = r })
		s.RunAll(100)
		return rec
	}
	sb := NewSampledBackend(testTable(), 3)
	got := run(sb)
	want := run(AnalyticBackend{})
	if got.End != want.End || got.Start != want.Start {
		t.Errorf("miss fallback timing %+v differs from analytic %+v", got, want)
	}
	if sb.Misses() != 1 || sb.Draws() != 1 {
		t.Errorf("misses = %d draws = %d, want 1 and 1", sb.Misses(), sb.Draws())
	}
}

// TestHierarchyIdentityWithoutL2: with L2 modelling disabled (zero
// capacity) the hierarchy backend must be bit-identical to the analytic
// backend — the inflation factor is exactly 1 and the identity arithmetic
// introduces no float error.
func TestHierarchyIdentityWithoutL2(t *testing.T) {
	run := func(backend LatencyBackend) []KernelRecord {
		spec := TestGPU()
		spec.L2Bytes = 0
		s := sim.New()
		g := New(s, spec)
		g.SetBackend(backend)
		var recs []KernelRecord
		record := func(r KernelRecord) { recs = append(recs, r) }
		a := g.NewStream(g.FullMask())
		b := g.NewStream(g.FullMask().Prefix(4))
		for i := 0; i < 4; i++ {
			g.Launch(a, Kernel{Name: "gemm", FLOPs: 1e9, Bytes: 2e6, Grid: 8}, record)
			g.Launch(b, Kernel{Name: "copy", Bytes: 1e7}, record)
		}
		s.RunAll(10000)
		return recs
	}
	if a, h := run(AnalyticBackend{}), run(HierarchyBackend{}); !reflect.DeepEqual(a, h) {
		t.Errorf("hierarchy with L2 disabled diverged from analytic:\n%v\n%v", a, h)
	}
}

// TestHierarchySlowsCoLocatedKernels: with L2 enabled, co-located
// memory-hungry kernels finish later than under the analytic backend,
// and solo kernels are untouched.
func TestHierarchySlowsCoLocatedKernels(t *testing.T) {
	run := func(backend LatencyBackend, coRun bool) sim.Time {
		s := sim.New()
		g := New(s, TestGPU())
		g.SetBackend(backend)
		a := g.NewStream(g.FullMask())
		g.Launch(a, Kernel{Name: "big", Bytes: 5e7}, nil)
		if coRun {
			b := g.NewStream(g.FullMask())
			g.Launch(b, Kernel{Name: "rival", Bytes: 5e7}, nil)
		}
		s.RunAll(10000)
		return s.Now()
	}
	if solo, an := run(HierarchyBackend{}, false), run(AnalyticBackend{}, false); solo != an {
		t.Errorf("solo hierarchy makespan %v != analytic %v", solo, an)
	}
	if co, an := run(HierarchyBackend{}, true), run(AnalyticBackend{}, true); co <= an {
		t.Errorf("co-located hierarchy makespan %v not above analytic %v", co, an)
	}
}

// TestHierarchyCacheFitNoInflation: working sets that fit even the
// shared L2 partition see no inflation — with near-perfect reuse the
// solo miss rate is floored (minMissRate) above the shared one, and the
// backend clamps the ratio at exactly 1, matching analytic timing.
func TestHierarchyCacheFitNoInflation(t *testing.T) {
	run := func(backend LatencyBackend) sim.Time {
		spec := TestGPU()
		spec.L2ReuseFrac = 0.98
		s := sim.New()
		g := New(s, spec)
		g.SetBackend(backend)
		a := g.NewStream(g.FullMask())
		b := g.NewStream(g.FullMask())
		g.Launch(a, Kernel{Name: "small-a", Bytes: 1e6}, nil)
		g.Launch(b, Kernel{Name: "small-b", Bytes: 1e6}, nil)
		s.RunAll(10000)
		return s.Now()
	}
	if h, an := run(HierarchyBackend{}), run(AnalyticBackend{}); h != an {
		t.Errorf("cache-fit hierarchy makespan %v != analytic %v", h, an)
	}
}

// TestSetBackendGuards: nil restores the analytic default; swapping with
// resident kernels panics (mid-flight demands would mix two models).
func TestSetBackendGuards(t *testing.T) {
	s := sim.New()
	g := New(s, TestGPU())
	g.SetBackend(nil)
	if g.Backend().Name() != BackendAnalytic {
		t.Errorf("SetBackend(nil) left %q, want analytic", g.Backend().Name())
	}
	st := g.NewStream(g.FullMask())
	g.Launch(st, Kernel{Name: "long", FLOPs: 1e12}, nil)
	for i := 0; i < 50 && len(g.running) == 0; i++ {
		s.Step()
	}
	if len(g.running) == 0 {
		t.Fatal("kernel never became resident")
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("SetBackend with resident kernels did not panic")
		}
	}()
	g.SetBackend(HierarchyBackend{})
}

// TestNewSampledBackendRejectsBadTable: constructing over an invalid
// table is a programming error and must panic with the validation text.
func TestNewSampledBackendRejectsBadTable(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "non-positive RefSMs") {
			t.Errorf("panic = %v, want RefSMs validation message", r)
		}
	}()
	NewSampledBackend(&LatencyTable{}, 1)
}
