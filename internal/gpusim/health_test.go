package gpusim

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/units"
)

func TestHealthDefaults(t *testing.T) {
	_, g := newTestGPU()
	for i := 0; i < g.Spec.NumSMs; i++ {
		if g.SMHealth(i) != 1 {
			t.Fatalf("SM %d health = %v, want 1", i, g.SMHealth(i))
		}
	}
	if g.HealthyMask() != g.FullMask() {
		t.Fatalf("HealthyMask = %v, want full", g.HealthyMask())
	}
	if g.HealthyCapacity() != units.SMs(g.Spec.NumSMs) {
		t.Fatalf("HealthyCapacity = %v, want %d", g.HealthyCapacity(), g.Spec.NumSMs)
	}
}

func TestHealthyMaskExcludesOnlyDeadSMs(t *testing.T) {
	_, g := newTestGPU() // 8 SMs
	g.SetSMHealth(0, 2, 0)
	g.SetSMHealth(2, 2, 0.3)
	want := smmask.Range(2, 8) // throttled SMs stay in the healthy set
	if g.HealthyMask() != want {
		t.Fatalf("HealthyMask = %v, want %v", g.HealthyMask(), want)
	}
	if got := g.HealthyCapacity(); !almost(got, units.SMs(0.3*2+4), 1e-12) {
		t.Fatalf("HealthyCapacity = %v, want 4.6", got)
	}
	if g.SMHealth(1) != 0 || g.SMHealth(3) != 0.3 || g.SMHealth(7) != 1 {
		t.Fatalf("per-SM health = %v/%v/%v", g.SMHealth(1), g.SMHealth(3), g.SMHealth(7))
	}
}

func TestThrottledComputeScalesWithHealth(t *testing.T) {
	_, g := newTestGPU() // 8 SMs, 1e12 FLOP/s
	g.SetSMHealth(0, 4, 0.5)
	st := g.NewStream(g.FullMask())
	// Effective SMs: 4×0.5 + 4×1 = 6 of 8.
	rec := runKernel(t, g, st, Kernel{Name: "gemm", FLOPs: 1e12, Bytes: 1, Grid: 8})
	if want := sim.Time(8.0 / 6.0); !almost(rec.Duration(), want, 1e-9) {
		t.Fatalf("duration = %v, want %v", rec.Duration(), want)
	}
}

func TestDeadMaskDrainsAtFloor(t *testing.T) {
	_, g := newTestGPU()
	g.SetSMHealth(0, 8, 0)
	st := g.NewStream(g.FullMask())
	// All SMs dead: the kernel must still finish (at the trickle floor
	// deadDrainSMs/NumSMs of peak) rather than stall the simulation.
	rec := runKernel(t, g, st, Kernel{Name: "gemm", FLOPs: 1e12, Bytes: 1, Grid: 8})
	if want := sim.Time(8.0 / deadDrainSMs); !almost(rec.Duration(), want, 1e-9) {
		t.Fatalf("duration = %v, want %v", rec.Duration(), want)
	}
}

func TestHealthChangeMidKernelReratesIt(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	var rec KernelRecord
	g.Launch(st, Kernel{Name: "gemm", FLOPs: 1e12, Bytes: 1, Grid: 8}, func(r KernelRecord) { rec = r })
	// Halfway through, halve the whole device: the remaining half of the
	// work runs at half rate, so the kernel ends at 1.5s instead of 1.0s.
	s.Post(sim.Time(0.5), func() { g.SetSMHealth(0, 8, 0.5) })
	s.RunAll(10000)
	if !almost(rec.End, sim.Time(1.5), 1e-9) {
		t.Fatalf("end = %v, want 1.5", rec.End)
	}
}

func TestHealthRecoveryRestoresRate(t *testing.T) {
	_, g := newTestGPU()
	g.SetSMHealth(2, 4, 0)
	g.SetSMHealth(2, 4, 1)
	if g.HealthyMask() != g.FullMask() {
		t.Fatalf("HealthyMask after recovery = %v, want full", g.HealthyMask())
	}
	st := g.NewStream(g.FullMask())
	rec := runKernel(t, g, st, Kernel{Name: "gemm", FLOPs: 1e12, Bytes: 1, Grid: 8})
	if !almost(rec.Duration(), sim.Time(1.0), 1e-9) {
		t.Fatalf("duration after recovery = %v, want 1.0", rec.Duration())
	}
}

func TestDegradedBandwidthOccupancy(t *testing.T) {
	_, g := newTestGPU() // 1e11 B/s, BWScaleExp 0.5
	g.SetSMHealth(0, 4, 0)
	st := g.NewStream(g.FullMask())
	// Memory-bound kernel: bandwidth access scales with health-weighted
	// occupancy (4 of 8 SMs) through the sublinear exponent.
	rec := runKernel(t, g, st, Kernel{Name: "copy", Bytes: 1e11})
	want := sim.Time(1.0 / math.Pow(0.5, 0.5))
	if !almost(rec.Duration(), want, 1e-9) {
		t.Fatalf("duration = %v, want %v", rec.Duration(), want)
	}
}

func TestExplicitFullHealthIsBitIdentical(t *testing.T) {
	// Baseline: nil health vector (the fast path).
	_, g1 := newTestGPU()
	st1 := g1.NewStream(smmask.Range(0, 6))
	r1 := runKernel(t, g1, st1, Kernel{Name: "gemm", FLOPs: 3e11, Bytes: 2e10, Grid: 11})
	// Same device with health explicitly set to all-ones.
	_, g2 := newTestGPU()
	g2.SetSMHealth(0, 8, 1)
	st2 := g2.NewStream(smmask.Range(0, 6))
	r2 := runKernel(t, g2, st2, Kernel{Name: "gemm", FLOPs: 3e11, Bytes: 2e10, Grid: 11})
	if r1.End != r2.End || r1.Start != r2.Start {
		t.Fatalf("all-ones health diverges from nil health: %+v vs %+v", r1, r2)
	}
}

func TestSetSMHealthValidation(t *testing.T) {
	_, g := newTestGPU()
	cases := []struct {
		name     string
		first, n int
		h        float64
	}{
		{"negative first", -1, 2, 1},
		{"zero span", 0, 0, 1},
		{"past end", 6, 4, 1},
		{"negative health", 0, 2, -0.1},
		{"above one", 0, 2, 1.5},
		{"nan", 0, 2, math.NaN()},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetSMHealth(%d,%d,%v) accepted", c.name, c.first, c.n, c.h)
				}
			}()
			g.SetSMHealth(c.first, c.n, c.h)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SMHealth(99) accepted")
			}
		}()
		g.SMHealth(99)
	}()
}
