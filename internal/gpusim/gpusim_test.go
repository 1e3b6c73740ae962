package gpusim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/timeline"
	"repro/internal/units"
)

func newTestGPU() (*sim.Simulation, *GPU) {
	s := sim.New()
	return s, New(s, TestGPU())
}

func almost[F ~float64](a, b F, tol float64) bool {
	if b == 0 {
		return math.Abs(float64(a)) < tol
	}
	return math.Abs(float64(a-b))/math.Abs(float64(b)) < tol
}

func runKernel(t *testing.T, g *GPU, st *Stream, k Kernel) KernelRecord {
	t.Helper()
	var rec KernelRecord
	gotDone := false
	g.Launch(st, k, func(r KernelRecord) { rec = r; gotDone = true })
	g.sim.RunAll(10000)
	if !gotDone {
		t.Fatalf("kernel %q never completed", k.Name)
	}
	return rec
}

func TestWaveIdleRatio(t *testing.T) {
	cases := []struct {
		grid, m int
		want    float64
	}{
		{192, 108, 1 - 192.0/216},    // QKV @1024: 11.1%
		{256, 108, 1 - 256.0/324},    // Attn @1024: 21.0%
		{128, 108, 1 - 128.0/216},    // OProj @1024: 40.7%
		{3072, 108, 1 - 3072.0/3132}, // QKV @16384: 1.9%
		{108, 108, 0},
		{216, 108, 0},
		{0, 108, 0},
		{5, 0, 0},
	}
	for _, c := range cases {
		if got := WaveIdleRatio(c.grid, c.m); !almost(got, c.want, 1e-12) && got != c.want {
			t.Errorf("WaveIdleRatio(%d,%d) = %v, want %v", c.grid, c.m, got, c.want)
		}
	}
}

func TestComputeBoundSoloDuration(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	// 1e12 FLOPs on a 1e12 FLOP/s device, no bytes to speak of, even grid.
	rec := runKernel(t, g, st, Kernel{Name: "gemm", FLOPs: 1e12, Bytes: 1, Grid: 8})
	if !almost(rec.Duration(), 1.0, 1e-9) {
		t.Fatalf("duration = %v, want 1.0", rec.Duration())
	}
	if s.Now() != rec.End {
		t.Fatalf("clock %v != end %v", s.Now(), rec.End)
	}
}

func TestMemoryBoundSoloDuration(t *testing.T) {
	_, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	// 1e11 bytes on a 1e11 B/s device.
	rec := runKernel(t, g, st, Kernel{Name: "copy", Bytes: 1e11})
	if !almost(rec.Duration(), 1.0, 1e-9) {
		t.Fatalf("duration = %v, want 1.0", rec.Duration())
	}
}

func TestWaveQuantizationInflation(t *testing.T) {
	_, g := newTestGPU() // 8 SMs
	st := g.NewStream(g.FullMask())
	// Grid 9 on 8 SMs: 2 waves, active fraction 9/16.
	rec := runKernel(t, g, st, Kernel{Name: "tail", FLOPs: 1e12, Bytes: 1, Grid: 9})
	want := sim.Time(1.0 / (9.0 / 16.0))
	if !almost(rec.Duration(), want, 1e-9) {
		t.Fatalf("duration = %v, want %v", rec.Duration(), want)
	}
	if !almost(rec.WaveIdle, 1-9.0/16.0, 1e-12) {
		t.Fatalf("WaveIdle = %v", rec.WaveIdle)
	}
}

func TestEfficiencyFactor(t *testing.T) {
	_, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	rec := runKernel(t, g, st, Kernel{Name: "attn", FLOPs: 1e12, Bytes: 1, Grid: 8, Efficiency: 0.5})
	if !almost(rec.Duration(), 2.0, 1e-9) {
		t.Fatalf("duration = %v, want 2.0", rec.Duration())
	}
}

func TestPartialSMComputeScalesLinearly(t *testing.T) {
	_, g := newTestGPU()
	st := g.NewStream(smmask.Range(0, 4)) // half the SMs
	rec := runKernel(t, g, st, Kernel{Name: "gemm", FLOPs: 1e12, Bytes: 1, Grid: 4})
	if !almost(rec.Duration(), 2.0, 1e-9) {
		t.Fatalf("duration = %v, want 2.0 (half compute)", rec.Duration())
	}
}

func TestPartialSMBandwidthScalesSuperLinearly(t *testing.T) {
	_, g := newTestGPU() // BWScaleExp = 0.5
	st := g.NewStream(smmask.Range(0, 4))
	rec := runKernel(t, g, st, Kernel{Name: "copy", Bytes: 1e11})
	want := sim.Time(1.0 / math.Pow(0.5, 0.5)) // ≈ 1.414 (not 2.0)
	if !almost(rec.Duration(), want, 1e-9) {
		t.Fatalf("duration = %v, want %v", rec.Duration(), want)
	}
}

func TestStreamFIFO(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		g.Launch(st, Kernel{Name: name, FLOPs: 1e12, Bytes: 1, Grid: 8},
			func(KernelRecord) { order = append(order, name) })
	}
	s.RunAll(1000)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if !almost(s.Now(), 3.0, 1e-9) {
		t.Fatalf("three serialized kernels took %v, want 3.0", s.Now())
	}
}

func TestDisjointStreamsRunConcurrently(t *testing.T) {
	s, g := newTestGPU()
	a := g.NewStream(smmask.Range(0, 4))
	b := g.NewStream(smmask.Range(4, 8))
	done := 0
	// Each compute kernel sized for 1s on 4 SMs.
	k := Kernel{FLOPs: 0.5e12, Bytes: 1, Grid: 4}
	g.Launch(a, k, func(KernelRecord) { done++ })
	g.Launch(b, k, func(KernelRecord) { done++ })
	s.RunAll(1000)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if !almost(s.Now(), 1.0, 1e-9) {
		t.Fatalf("concurrent disjoint kernels took %v, want 1.0", s.Now())
	}
}

func TestOverlappingMasksShareCompute(t *testing.T) {
	s, g := newTestGPU()
	a := g.NewStream(g.FullMask())
	b := g.NewStream(g.FullMask())
	k := Kernel{FLOPs: 1e12, Bytes: 1, Grid: 8}
	g.Launch(a, k, nil)
	g.Launch(b, k, nil)
	s.RunAll(1000)
	// Each gets half the SMs' compute: both finish at t=2.
	if !almost(s.Now(), 2.0, 1e-9) {
		t.Fatalf("fully overlapped kernels took %v, want 2.0", s.Now())
	}
}

func TestBandwidthContentionSharesFairly(t *testing.T) {
	s, g := newTestGPU()
	a := g.NewStream(smmask.Range(0, 4))
	b := g.NewStream(smmask.Range(4, 8))
	// Two memory-bound kernels, each alone would pull the full 1e11 B/s
	// if it could, but its 4-SM cap is 0.707e11; together they demand
	// more than peak, so they share 0.5e11 each.
	k := Kernel{Bytes: 1e11}
	g.Launch(a, k, nil)
	g.Launch(b, k, nil)
	s.RunAll(1000)
	if !almost(s.Now(), 2.0, 1e-9) {
		t.Fatalf("BW-contended kernels took %v, want 2.0", s.Now())
	}
}

func TestComputeAndMemoryKernelsComplement(t *testing.T) {
	s, g := newTestGPU()
	a := g.NewStream(smmask.Range(0, 6))
	b := g.NewStream(smmask.Range(6, 8))
	// Compute kernel on 6 SMs: 1e12*6/8 = 0.75e12 FLOP/s, tiny bytes.
	// Memory kernel on 2 SMs: bw cap = (2/8)^0.5 = 0.5 → 0.5e11 B/s.
	// They barely contend: both should finish near their solo times.
	var compEnd, memEnd sim.Time
	g.Launch(a, Kernel{Name: "comp", FLOPs: 0.75e12, Bytes: 1e9, Grid: 6},
		func(r KernelRecord) { compEnd = r.End })
	g.Launch(b, Kernel{Name: "mem", Bytes: 0.5e11},
		func(r KernelRecord) { memEnd = r.End })
	s.RunAll(1000)
	if !almost(compEnd, 1.0, 0.05) {
		t.Fatalf("compute end = %v, want ≈1.0", compEnd)
	}
	if !almost(memEnd, 1.0, 0.05) {
		t.Fatalf("memory end = %v, want ≈1.0", memEnd)
	}
}

func TestRateRecomputationOnFinish(t *testing.T) {
	s, g := newTestGPU()
	a := g.NewStream(smmask.Range(0, 4))
	b := g.NewStream(smmask.Range(4, 8))
	// Kernel A: memory-bound, 1e11 bytes. Kernel B: memory-bound,
	// 0.25e11 bytes. Together they split BW 0.5/0.5e11. B finishes at
	// t=0.5; then A speeds up to its solo 4-SM cap 0.707e11.
	var aEnd sim.Time
	g.Launch(a, Kernel{Name: "A", Bytes: 1e11}, func(r KernelRecord) { aEnd = r.End })
	g.Launch(b, Kernel{Name: "B", Bytes: 0.25e11}, nil)
	s.RunAll(1000)
	// A does 0.5e11*0.5 = 0.25e11 bytes by t=0.5, then 0.75e11 bytes at
	// 0.707e11 B/s → 1.0607s more → total ≈ 1.5607.
	want := sim.Time(0.5 + 0.75e11/(1e11*math.Pow(0.5, 0.5)))
	if !almost(aEnd, want, 1e-6) {
		t.Fatalf("A end = %v, want %v", aEnd, want)
	}
}

func TestSetMaskAppliesToNextKernel(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	var d1, d2 sim.Time
	g.Launch(st, Kernel{FLOPs: 1e12, Bytes: 1, Grid: 8}, func(r KernelRecord) { d1 = r.Duration() })
	st.SetMask(smmask.Range(0, 4))
	g.Launch(st, Kernel{FLOPs: 1e12, Bytes: 1, Grid: 4}, func(r KernelRecord) { d2 = r.Duration() })
	s.RunAll(1000)
	if !almost(d1, 1.0, 1e-9) {
		t.Fatalf("first kernel (already queued with full mask) = %v", d1)
	}
	if !almost(d2, 2.0, 1e-9) {
		t.Fatalf("second kernel (half mask) = %v", d2)
	}
}

func TestSynchronize(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	syncAt := sim.Time(-1)
	g.Launch(st, Kernel{FLOPs: 1e12, Bytes: 1, Grid: 8}, nil)
	g.Synchronize(st, func() { syncAt = s.Now() })
	s.RunAll(1000)
	if !almost(syncAt, 1.0, 1e-9) {
		t.Fatalf("sync fired at %v, want 1.0", syncAt)
	}
	// Sync on an idle stream fires immediately (but asynchronously).
	fired := false
	g.Synchronize(st, func() { fired = true })
	if fired {
		t.Fatal("idle sync fired inline")
	}
	s.RunAll(1000)
	if !fired {
		t.Fatal("idle sync never fired")
	}
}

func TestLaunchOverhead(t *testing.T) {
	s := sim.New()
	spec := TestGPU()
	spec.LaunchOverhead = 0.25
	g := New(s, spec)
	st := g.NewStream(g.FullMask())
	var rec KernelRecord
	g.Launch(st, Kernel{FLOPs: 1e12, Bytes: 1, Grid: 8}, func(r KernelRecord) { rec = r })
	s.RunAll(1000)
	if !almost(rec.Start, 0.25, 1e-9) {
		t.Fatalf("start = %v, want 0.25", rec.Start)
	}
	if !almost(rec.End, 1.25, 1e-9) {
		t.Fatalf("end = %v, want 1.25", rec.End)
	}
}

func TestGraphKernelsSkipPerKernelOverhead(t *testing.T) {
	s := sim.New()
	spec := TestGPU()
	spec.LaunchOverhead = 0.25
	spec.GraphLaunchOverhead = 0.1
	g := New(s, spec)
	st := g.NewStream(g.FullMask())
	k := Kernel{FLOPs: 0.5e12, Bytes: 1, Grid: 8, Graph: true}
	head := k
	head.GraphHead = true
	g.Launch(st, head, nil)
	g.Launch(st, k, nil)
	s.RunAll(1000)
	// 0.1 graph launch + 0.5 + 0.5 compute.
	if !almost(s.Now(), 1.1, 1e-9) {
		t.Fatalf("graph of 2 kernels took %v, want 1.1", s.Now())
	}
}

func TestCoRunPenaltiesScaleWithOverlap(t *testing.T) {
	spec := TestGPU()
	spec.CoRunComputePenalty = 0.5
	run := func(aMask, bMask smmask.Mask, flopsA units.FLOPs) sim.Time {
		s := sim.New()
		g := New(s, spec)
		a := g.NewStream(aMask)
		b := g.NewStream(bMask)
		var aEnd sim.Time
		g.Launch(a, Kernel{FLOPs: flopsA, Bytes: 1, Grid: aMask.Count()},
			func(r KernelRecord) { aEnd = r.End })
		g.Launch(b, Kernel{FLOPs: 1e12, Bytes: 1, Grid: bMask.Count()}, nil)
		s.RunAll(1000)
		return aEnd
	}
	// Disjoint masks: no interference penalty; A alone on 4 SMs takes 1s.
	disjoint := run(smmask.Range(0, 4), smmask.Range(4, 8), 0.5e12)
	if !almost(disjoint, 1.0, 1e-9) {
		t.Fatalf("disjoint co-run end = %v, want 1.0 (no penalty)", disjoint)
	}
	// Fully overlapped equal kernels: compute halves AND the p_c=0.5
	// full-overlap penalty applies → 4x the solo time.
	overlapped := run(smmask.Range(0, 8), smmask.Range(0, 8), 1e12)
	if !almost(overlapped, 4.0, 1e-9) {
		t.Fatalf("overlapped co-run end = %v, want 4.0", overlapped)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	g.Launch(st, Kernel{FLOPs: 1e12, Bytes: 1e10, Grid: 8, Tag: "prefill"}, nil)
	s.RunAll(1000)
	if u := g.ComputeUtilization(); !almost(u, 1.0, 1e-6) {
		t.Fatalf("compute utilization = %v, want 1.0", u)
	}
	st2 := g.Stats()
	if !almost(st2.TagFlops["prefill"], 1e12, 1e-6) {
		t.Fatalf("tag flops = %v", st2.TagFlops["prefill"])
	}
	if !almost(st2.SMBusyTime, 8.0, 1e-6) {
		t.Fatalf("SM busy time = %v, want 8", st2.SMBusyTime)
	}
	if !almost(st2.AnyBusyTime, 1.0, 1e-6) {
		t.Fatalf("any-busy time = %v, want 1", st2.AnyBusyTime)
	}
}

func TestTraceRecords(t *testing.T) {
	s, g := newTestGPU()
	var recs []KernelRecord
	record := func(r KernelRecord) { recs = append(recs, r) }
	st := g.NewStream(g.FullMask())
	g.Launch(st, Kernel{Name: "x", FLOPs: 1e12, Bytes: 1, Grid: 8}, record)
	g.Launch(st, Kernel{Name: "y", Bytes: 1e11}, record)
	s.RunAll(1000)
	if len(recs) != 2 || recs[0].Name != "x" || recs[1].Name != "y" {
		t.Fatalf("trace = %+v", recs)
	}
	if recs[1].Start < recs[0].End {
		t.Fatal("serialized kernels overlap in trace")
	}
}

func TestIdle(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	if !g.Idle() {
		t.Fatal("fresh GPU not idle")
	}
	g.Launch(st, Kernel{FLOPs: 1e12, Bytes: 1, Grid: 8}, nil)
	if g.Idle() {
		t.Fatal("GPU with queued kernel reported idle")
	}
	s.RunAll(1000)
	if !g.Idle() {
		t.Fatal("drained GPU not idle")
	}
}

// Property: instantaneous bandwidth never exceeds peak, regardless of the
// concurrent kernel mix.
func TestPropertyBandwidthConserved(t *testing.T) {
	f := func(seed int64) bool {
		s := sim.New()
		g := New(s, TestGPU())
		rec := timeline.New(0)
		g.TL = rec
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		for i := 0; i < n; i++ {
			lo := rng.Intn(7)
			hi := lo + 1 + rng.Intn(8-lo-1) + 1
			if hi > 8 {
				hi = 8
			}
			st := g.NewStream(smmask.Range(lo, hi))
			g.Launch(st, Kernel{
				FLOPs: units.FLOPs(rng.Intn(10)+1) * 1e10,
				Bytes: units.Bytes(rng.Intn(10)+1) * 1e9,
				Grid:  rng.Intn(20),
			}, nil)
		}
		s.RunAll(100000)
		return slices.Max(gpuCounter(rec, "throughput", "bandwidth")) <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a solo kernel never runs slower on more SMs.
func TestPropertyMonotoneInSMs(t *testing.T) {
	f := func(flopsU, bytesU uint32, gridU uint16) bool {
		k := Kernel{
			FLOPs: units.FLOPs(flopsU%1000+1) * 1e9,
			Bytes: units.Bytes(bytesU%1000+1) * 1e8,
			Grid:  int(gridU % 64),
		}
		prev := sim.Time(math.Inf(1))
		for m := 2; m <= 8; m += 2 {
			s := sim.New()
			g := New(s, TestGPU())
			st := g.NewStream(smmask.Range(0, m))
			var d sim.Time
			g.Launch(st, k, func(r KernelRecord) { d = r.Duration() })
			s.RunAll(100000)
			if d > prev+1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLaunchFinish(b *testing.B) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Launch(st, Kernel{FLOPs: 1e9, Bytes: 1e6, Grid: 8}, nil)
		s.RunAll(1e18)
	}
}

func BenchmarkConcurrentKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, g := newTestGPU()
		streams := []*Stream{
			g.NewStream(smmask.Range(0, 2)),
			g.NewStream(smmask.Range(2, 4)),
			g.NewStream(smmask.Range(4, 6)),
			g.NewStream(smmask.Range(6, 8)),
		}
		for j := 0; j < 50; j++ {
			g.Launch(streams[j%4], Kernel{FLOPs: 1e9, Bytes: 1e7, Grid: j % 16}, nil)
		}
		s.RunAll(1e6)
	}
}
