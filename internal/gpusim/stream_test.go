package gpusim

import (
	"slices"
	"testing"

	"repro/internal/smmask"
	"repro/internal/timeline"
)

// gpuCounter returns the value of arg key on every "gpu" lane counter
// sample named name, in recording order.
func gpuCounter(rec *timeline.Recorder, name, key string) []float64 {
	var out []float64
	for _, e := range rec.Events() {
		if e.Kind != timeline.KindCounter || e.Lane != "gpu" || e.Name != name {
			continue
		}
		for _, a := range e.Args {
			switch {
			case a.Key != key:
			case a.Kind == timeline.ArgInt:
				out = append(out, float64(a.I))
			default:
				out = append(out, a.F)
			}
		}
	}
	return out
}

// TestOccupancyCounterObservesConcurrency reads the per-re-rate occupancy
// samples: two kernels on disjoint halves of the device are co-resident
// and together occupy every SM.
func TestOccupancyCounterObservesConcurrency(t *testing.T) {
	s, g := newTestGPU()
	rec := timeline.New(0)
	g.TL = rec
	a := g.NewStream(smmask.Range(0, 4))
	b := g.NewStream(smmask.Range(4, 8))
	g.Launch(a, Kernel{FLOPs: 1e11, Bytes: 1, Grid: 4}, nil)
	g.Launch(b, Kernel{FLOPs: 1e11, Bytes: 1, Grid: 4}, nil)
	s.RunAll(1000)
	if got := slices.Max(gpuCounter(rec, "occupancy", "resident")); got != 2 {
		t.Fatalf("max resident = %v, want 2", got)
	}
	if got := slices.Max(gpuCounter(rec, "occupancy", "busySMs")); got != 8 {
		t.Fatalf("busy SMs = %v, want 8", got)
	}
}

func TestStreamDepthAndBusy(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	if st.Busy() || st.Depth() != 0 {
		t.Fatal("fresh stream busy")
	}
	g.Launch(st, Kernel{FLOPs: 1e11, Bytes: 1}, nil)
	g.Launch(st, Kernel{FLOPs: 1e11, Bytes: 1}, nil)
	if st.Depth() != 2 || !st.Busy() {
		t.Fatalf("depth = %d", st.Depth())
	}
	s.RunAll(1000)
	if st.Busy() {
		t.Fatal("drained stream busy")
	}
}

func TestEmptyMaskPanics(t *testing.T) {
	_, g := newTestGPU()
	defer func() {
		if recover() == nil {
			t.Fatal("empty mask accepted")
		}
	}()
	g.NewStream(smmask.Empty)
}

func TestZeroWorkKernelPanics(t *testing.T) {
	_, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-work kernel accepted")
		}
	}()
	g.Launch(st, Kernel{Name: "empty"}, nil)
}

func TestTagAccountingAcrossStreams(t *testing.T) {
	s, g := newTestGPU()
	a := g.NewStream(smmask.Range(0, 4))
	b := g.NewStream(smmask.Range(4, 8))
	g.Launch(a, Kernel{FLOPs: 1e11, Bytes: 1, Tag: "prefill"}, nil)
	g.Launch(b, Kernel{Bytes: 1e10, Tag: "decode"}, nil)
	s.RunAll(1000)
	st := g.Stats()
	if st.TagFlops["prefill"] < 0.99e11 {
		t.Fatalf("prefill flops = %v", st.TagFlops["prefill"])
	}
	if st.TagBytes["decode"] < 0.99e10 {
		t.Fatalf("decode bytes = %v", st.TagBytes["decode"])
	}
	if st.TagSMTime["prefill"] <= 0 || st.TagSMTime["decode"] <= 0 {
		t.Fatalf("missing SM time: %+v", st.TagSMTime)
	}
}

func TestBandwidthUtilizationAverage(t *testing.T) {
	s, g := newTestGPU()
	st := g.NewStream(g.FullMask())
	// One second of full-bandwidth traffic followed by one second idle.
	g.Launch(st, Kernel{Bytes: 1e11}, nil)
	s.RunAll(1000)
	s.Post(2.0, func() {})
	s.RunAll(10)
	if u := g.BandwidthUtilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("bandwidth utilization = %v, want ≈0.5", u)
	}
}
