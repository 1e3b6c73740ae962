package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/units"
)

// The reference oracle below is the re-rate as the simulator computed it
// before compute shares and bandwidth-occupancy factors were cached on the
// launch: every share re-derived per call through a Mask.ForEach closure,
// the bandwidth factor recomputed with math.Pow, and the water-filling
// ordered by sort.Slice. TestReRateMatchesOracle holds the cached,
// allocation-free re-rate to it bit for bit.

// oracleMaskHealth is the reference summed health of a mask.
func oracleMaskHealth(g *GPU, m smmask.Mask) float64 {
	if g.health == nil {
		return float64(m.Count())
	}
	total := 0.0
	m.ForEach(func(i int) { total += g.health[i] })
	return total
}

// oracleEffectiveSMs is the reference compute share of l: SMs in
// ascending order, each sharing weight summed in resident order starting
// from l's own.
func oracleEffectiveSMs(g *GPU, l *launch) units.SMs {
	overlapped := false
	for _, o := range g.running {
		if o != l && o.mask.Overlaps(l.mask) {
			overlapped = true
			break
		}
	}
	if !overlapped {
		return units.SMs(oracleMaskHealth(g, l.mask))
	}
	eff := units.SMs(0)
	l.mask.ForEach(func(i int) {
		total := l.weight
		for _, o := range g.running {
			if o != l && o.mask.Has(i) {
				total += o.weight
			}
		}
		share := l.weight / total
		if g.health != nil {
			share *= g.health[i]
		}
		eff += units.SMs(share)
	})
	return eff
}

// oracleSoloRate is the reference solo rate, with the bandwidth-occupancy
// factor recomputed from the mask's current health.
func oracleSoloRate(g *GPU, l *launch, meff units.SMs, ov float64) units.PerSec {
	spec := g.Spec
	frac := units.Ratio(meff, units.SMs(spec.NumSMs))
	if frac <= 0 {
		frac = deadDrainSMs / float64(spec.NumSMs)
	}
	effPeak := l.k.Efficiency
	if effPeak == 0 {
		effPeak = 1
	}
	pc := 1 - (1-spec.CoRunComputePenalty)*ov
	pb := 1 - (1-spec.CoRunBWPenalty)*ov
	computeCap := units.Scale(units.Scale(units.Scale(spec.PeakFLOPS, effPeak), frac), pc)
	wave := 1 - WaveIdleRatio(l.k.Grid, l.maskCount)
	occ := oracleMaskHealth(g, l.mask)
	if occ <= 0 {
		occ = deadDrainSMs
	}
	occFrac := occ / float64(spec.NumSMs)
	bwCap := units.Scale(units.Scale(spec.PeakBW, math.Min(1, math.Pow(occFrac, spec.BWScaleExp))), pb)
	rc := units.Inf[units.PerSec](1)
	if l.k.FLOPs > 0 {
		rc = units.Scale(computeCap, wave).Progress(l.k.FLOPs)
	}
	rb := units.Inf[units.PerSec](1)
	if l.k.Bytes > 0 {
		rb = bwCap.Progress(l.k.Bytes)
	}
	rl := units.Inf[units.PerSec](1)
	if l.k.CommBytes > 0 && spec.LinkBW > 0 {
		rl = spec.LinkBW.Progress(l.k.CommBytes)
	}
	return units.Min(units.Min(rc, rb), rl)
}

// oracleDemand is the reference demand of each backend, built on the
// reference share.
func oracleDemand(t *testing.T, g *GPU, l *launch) KernelDemand {
	nominal := oracleSoloRate(g, l, oracleEffectiveSMs(g, l), g.overlapFraction(l))
	switch g.backend.(type) {
	case AnalyticBackend:
		return KernelDemand{Rate: nominal, BW: l.k.Bytes.AtRate(nominal), Volume: l.k.Bytes}
	case *SampledBackend:
		rate := units.Scale(nominal, l.scale)
		return KernelDemand{Rate: rate, BW: l.k.Bytes.AtRate(rate), Volume: l.k.Bytes}
	case HierarchyBackend:
		infl := cacheInflation(g, l)
		slow := 1 + (infl-1)*(1-l.weight)
		rate := units.Over(nominal, slow)
		volume := units.Scale(l.k.Bytes, infl)
		return KernelDemand{Rate: rate, BW: volume.AtRate(rate), Volume: volume}
	}
	t.Fatalf("no oracle for backend %s", g.backend.Name())
	return KernelDemand{}
}

// oracleRates is the reference max–min fair water-filling over the
// resident kernels.
func oracleRates(t *testing.T, g *GPU) map[*launch]units.PerSec {
	type demand struct {
		l       *launch
		nominal units.PerSec
		bytes   units.BytesPerSec
		volume  units.Bytes
	}
	demands := make([]demand, 0, len(g.running))
	for _, l := range g.running {
		d := oracleDemand(t, g, l)
		demands = append(demands, demand{l, d.Rate, d.BW, d.Volume})
	}
	sort.Slice(demands, func(i, j int) bool { return demands[i].bytes < demands[j].bytes })
	rates := make(map[*launch]units.PerSec, len(demands))
	remaining := g.Spec.PeakBW
	left := len(demands)
	for _, d := range demands {
		share := units.Over(remaining, float64(left))
		alloc := units.Min(d.bytes, share)
		remaining -= alloc
		left--
		rate := d.nominal
		if d.volume > 0 && alloc < d.bytes {
			rate = alloc.Progress(d.volume)
		}
		rates[d.l] = rate
	}
	return rates
}

// checkOracle asserts every resident kernel's cached share and current
// rate equal the oracle's bit for bit, and returns how many resident
// kernels shared an SM with at least two others.
func checkOracle(t *testing.T, g *GPU, where string) int {
	t.Helper()
	rates := oracleRates(t, g)
	crowded := 0
	for _, l := range g.running {
		want := oracleEffectiveSMs(g, l)
		if math.Float64bits(float64(l.meff)) != math.Float64bits(float64(want)) {
			t.Fatalf("%s: kernel %q on %v: cached share %v, oracle %v", where, l.k.Name, l.mask, l.meff, want)
		}
		if math.Float64bits(float64(l.rate)) != math.Float64bits(float64(rates[l])) {
			t.Fatalf("%s: kernel %q on %v: rate %v, oracle %v", where, l.k.Name, l.mask, l.rate, rates[l])
		}
		if threeWay(g, l) {
			crowded++
		}
	}
	return crowded
}

// threeWay reports whether some SM of l is shared with at least two other
// resident kernels, where the order of the weight adds matters.
func threeWay(g *GPU, l *launch) bool {
	for i := 0; i < g.Spec.NumSMs; i++ {
		if !l.mask.Has(i) {
			continue
		}
		n := 0
		for _, o := range g.running {
			if o != l && o.mask.Has(i) {
				n++
			}
		}
		if n >= 2 {
			return true
		}
	}
	return false
}

// randomMask draws a non-empty scattered mask over the device.
func randomMask(rng *rand.Rand, numSMs int) smmask.Mask {
	p := 0.3 + 0.6*rng.Float64()
	var m smmask.Mask
	for m.IsEmpty() {
		for i := 0; i < numSMs; i++ {
			if rng.Float64() < p {
				m.Set(i)
			}
		}
	}
	return m
}

// randomKernel draws a kernel whose FLOPs/bytes mix, and therefore its
// compute weight, is arbitrary.
func randomKernel(rng *rand.Rand) Kernel {
	names := []string{"gemm", "copy", "attn"}
	k := Kernel{
		Name:  names[rng.Intn(len(names))],
		Tag:   fmt.Sprintf("tag%d", rng.Intn(3)),
		FLOPs: units.FLOPs(rng.Float64() * 5e11),
		Bytes: units.Bytes(1e6 + rng.Float64()*5e9),
		Grid:  rng.Intn(400),
	}
	if rng.Intn(3) == 0 {
		k.Efficiency = 0.2 + 0.8*rng.Float64()
	}
	if rng.Intn(5) == 0 {
		k.CommBytes = units.Bytes(rng.Float64() * 1e8)
	}
	k.Tokens = 1 + rng.Intn(2048)
	return k
}

// randomHealth draws a health value: dead, healthy, or degraded.
func randomHealth(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1
	}
	return rng.Float64()
}

// TestReRateMatchesOracle drives random spatial-temporal mixes —
// scattered overlapping and disjoint masks, arbitrary compute weights,
// dead and degraded SMs — through all three backends and checks, after
// every launch, health change and event, that each resident kernel's
// cached share and rate equal the reference oracle bit for bit.
func TestReRateMatchesOracle(t *testing.T) {
	spec := A100() // 108 SMs: masks span two mask words
	backends := []struct {
		name string
		make func(seed int64) LatencyBackend
	}{
		{BackendAnalytic, func(int64) LatencyBackend { return AnalyticBackend{} }},
		{BackendSampled, func(seed int64) LatencyBackend { return NewSampledBackend(testTable(), seed) }},
		{BackendHierarchy, func(int64) LatencyBackend { return HierarchyBackend{} }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			checks, crowded := 0, 0
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := sim.New()
				g := New(s, spec)
				g.SetBackend(b.make(seed))
				streams := make([]*Stream, 3+rng.Intn(4))
				for i := range streams {
					streams[i] = g.NewStream(randomMask(rng, spec.NumSMs))
				}
				check := func(what string, i int) {
					crowded += checkOracle(t, g, fmt.Sprintf("seed %d op %d (%s)", seed, i, what))
					checks++
				}
				for i := 0; i < 120; i++ {
					switch r := rng.Intn(10); {
					case r < 4:
						st := streams[rng.Intn(len(streams))]
						if rng.Intn(3) == 0 {
							st.SetMask(randomMask(rng, spec.NumSMs))
						}
						g.Launch(st, randomKernel(rng), nil)
						check("launch", i)
					case r < 6:
						first := rng.Intn(spec.NumSMs)
						n := 1 + rng.Intn(spec.NumSMs-first)
						g.SetSMHealth(first, n, randomHealth(rng))
						check("health", i)
					default:
						if s.Step() {
							check("event", i)
						}
					}
				}
				g.SetSMHealth(0, spec.NumSMs, 1)
				check("recover", -1)
				for n := 0; s.Step(); n++ {
					if n > 100000 {
						t.Fatalf("seed %d: run did not drain", seed)
					}
					check("drain", n)
				}
			}
			// Guard the generator: the add order only matters where three or
			// more kernels share an SM, so the sweep must reach that case.
			if crowded < checks/10 {
				t.Fatalf("only %d of %d checks saw an SM shared three ways", crowded, checks)
			}
		})
	}
}
