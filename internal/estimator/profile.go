// Offline profiling and parameter fitting (§3.2.2).
//
// The profiler measures the simulated device exactly as the paper measures
// the A100: isolated prefill layers and decode steps across sampled
// (sequence length, batch size, context length, SM count) grids establish
// the decay factors (d_c, d_b); co-located prefill+decode runs then fit
// the contention factors (p_c, p_b). Sampling at coarse steps keeps the
// trial count small while covering the space; the analytical model
// interpolates everything in between.
package estimator

import (
	"math"
	"slices"
	"sort"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/units"
)

// ProfileOptions selects the sampled grid.
type ProfileOptions struct {
	SeqLens  []int          // prefill sequence lengths (sl)
	Batches  []int          // decode batch sizes (bs)
	Ctxs     []units.Tokens // decode average context lengths (cl)
	SMCounts []int          // SM allocations (pm / dm)
	// ColocSMSplits are (prefill SMs, decode SMs) pairs for contention
	// fitting.
	ColocSMSplits [][2]int
}

// DefaultProfileOptions mirrors the paper's sampling strategy (steps of
// 1024 tokens / 8 batch / 6 SMs, thinned to keep the default profile fast
// while covering the space).
func DefaultProfileOptions(spec gpusim.Spec) ProfileOptions {
	M := spec.NumSMs
	var sms []int
	for m := M / 9; m < M; m += M / 9 {
		sms = append(sms, m)
	}
	sms = append(sms, M)
	return ProfileOptions{
		SeqLens:  []int{512, 1024, 2048, 4096, 8192, 16384},
		Batches:  []int{8, 16, 32, 64, 128, 256},
		Ctxs:     []units.Tokens{512, 1024, 2048, 4096},
		SMCounts: sms,
		ColocSMSplits: [][2]int{
			{M - M/4, M / 4}, {M - M/3, M / 3}, {M / 2, M / 2},
			{M / 3, M - M/3}, {M, M / 4}, {M - M/9, M / 9},
		},
	}
}

// QuickProfileOptions is a reduced grid for tests.
func QuickProfileOptions(spec gpusim.Spec) ProfileOptions {
	M := spec.NumSMs
	return ProfileOptions{
		SeqLens:       []int{1024, 4096},
		Batches:       []int{16, 64},
		Ctxs:          []units.Tokens{1024},
		SMCounts:      []int{M / 2, M},
		ColocSMSplits: [][2]int{{M / 2, M / 2}, {M - M/4, M / 4}},
	}
}

// Sample is one profiled configuration with the model's final prediction,
// used by the Figure 15 accuracy analysis.
type Sample struct {
	Kind      string // "prefill-iso", "decode-iso", "prefill-coloc", "decode-coloc"
	SeqLen    int
	Batch     int
	Ctx       units.Tokens
	SMs       int
	Actual    units.Seconds
	Predicted units.Seconds
}

// RelError returns |pred-actual|/actual.
func (s Sample) RelError() float64 {
	if s.Actual == 0 {
		return 0
	}
	return units.Ratio(units.Abs(s.Predicted-s.Actual), s.Actual)
}

// Report summarises a fitting run.
type Report struct {
	Params       Params
	Trials       int
	MeanRelError float64
	P90RelError  float64
	Samples      []Sample
}

// MeanRelativeError averages relative errors over samples.
func MeanRelativeError(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s.RelError()
	}
	return sum / float64(len(samples))
}

// ClassificationAccuracy evaluates the model as an SLO-compliance
// classifier (Fig. 15 left): for each sample, "compliant" means the
// duration is at most threshold(sample); accuracy is the fraction of
// samples where prediction and ground truth agree. The threshold is taken
// per sample as factor × its actual-duration percentile within its kind,
// approximating per-request latency budgets.
func ClassificationAccuracy(samples []Sample, factor float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	byKind := map[string][]units.Seconds{}
	for _, s := range samples {
		byKind[s.Kind] = append(byKind[s.Kind], s.Actual)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	thresh := map[string]units.Seconds{}
	for _, k := range kinds {
		v := byKind[k]
		slices.Sort(v)
		thresh[k] = units.Scale(v[len(v)/2], factor)
	}
	agree := 0
	for _, s := range samples {
		th := thresh[s.Kind]
		if (s.Actual <= th) == (s.Predicted <= th) {
			agree++
		}
	}
	return float64(agree) / float64(len(samples))
}

// measured holds a ground-truth duration with the kernel inventory that
// produced it, so candidate parameters can be re-evaluated cheaply.
type measured struct {
	sample   Sample
	kernels  []gpusim.Kernel
	sms      int
	colocate bool
}

// Profile measures the device, fits Equation 2's parameters, and returns
// a ready Estimator plus the fitting report.
func Profile(cfg model.Config, spec gpusim.Spec, opts ProfileOptions) (*Estimator, Report) {
	var iso, coloc []measured

	// Isolated prefill layers.
	for _, sl := range opts.SeqLens {
		for _, m := range opts.SMCounts {
			dur := measurePrefillLayer(cfg, spec, sl, 0, m)
			iso = append(iso, measured{
				sample:  Sample{Kind: "prefill-iso", SeqLen: sl, SMs: m, Actual: dur},
				kernels: cfg.PrefillLayerKernels(sl, 0, ""),
				sms:     m,
			})
		}
	}
	// Isolated decode steps.
	for _, bs := range opts.Batches {
		for _, cl := range opts.Ctxs {
			for _, m := range opts.SMCounts {
				dur := measureDecodeStep(cfg, spec, bs, cl, m)
				iso = append(iso, measured{
					sample:  Sample{Kind: "decode-iso", Batch: bs, Ctx: cl, SMs: m, Actual: dur},
					kernels: []gpusim.Kernel{cfg.DecodeStepKernel(bs, cl, "")},
					sms:     m,
				})
			}
		}
	}
	// Co-located pairs: a representative mid-size prefill against each
	// decode size, across SM splits.
	for _, split := range opts.ColocSMSplits {
		for _, sl := range thin(opts.SeqLens, 2) {
			for _, bs := range thin(opts.Batches, 2) {
				cl := opts.Ctxs[len(opts.Ctxs)/2]
				pDur, dDur := measureColocated(cfg, spec, sl, bs, cl, split[0], split[1])
				coloc = append(coloc,
					measured{
						sample:   Sample{Kind: "prefill-coloc", SeqLen: sl, Batch: bs, Ctx: cl, SMs: split[0], Actual: pDur},
						kernels:  cfg.PrefillLayerKernels(sl, 0, ""),
						sms:      split[0],
						colocate: true,
					},
					measured{
						sample:   Sample{Kind: "decode-coloc", SeqLen: sl, Batch: bs, Ctx: cl, SMs: split[1], Actual: dDur},
						kernels:  []gpusim.Kernel{cfg.DecodeStepKernel(bs, cl, "")},
						sms:      split[1],
						colocate: true,
					},
				)
			}
		}
	}

	params := fit(cfg, spec, iso, coloc)
	est := New(cfg, spec, params)

	// Final predictions for the report.
	all := append(append([]measured(nil), iso...), coloc...)
	samples := make([]Sample, len(all))
	var relErrs []float64
	for i, m := range all {
		pred := predictKernels(spec, params, m.kernels, m.sms, m.colocate)
		s := m.sample
		s.Predicted = pred
		samples[i] = s
		relErrs = append(relErrs, s.RelError())
	}
	sort.Float64s(relErrs)
	rep := Report{
		Params:       params,
		Trials:       len(all),
		MeanRelError: MeanRelativeError(samples),
		Samples:      samples,
	}
	if n := len(relErrs); n > 0 {
		rep.P90RelError = relErrs[(n*9)/10]
	}
	return est, rep
}

func thin(xs []int, keep int) []int {
	if len(xs) <= keep {
		return xs
	}
	out := make([]int, 0, keep)
	for i := 0; i < keep; i++ {
		out = append(out, xs[i*(len(xs)-1)/(keep-1)])
	}
	return out
}

// predictKernels applies Equation 2 with candidate parameters: the
// estimator's own per-kernel time, summed over ks.
func predictKernels(spec gpusim.Spec, p Params, ks []gpusim.Kernel, sms int, coloc bool) units.Seconds {
	e := Estimator{spec: spec, params: p}
	t := units.Seconds(0)
	for _, k := range ks {
		t += e.kernelTime(k, sms, coloc)
	}
	return t
}

// fit performs coordinate descent: (d_c, d_b) on isolated samples, then
// (p_c, p_b) on co-located samples.
func fit(cfg model.Config, spec gpusim.Spec, iso, coloc []measured) Params {
	p := DefaultParams()
	loss := func(samples []measured, cand Params) float64 {
		sum := 0.0
		for _, m := range samples {
			pred := predictKernels(spec, cand, m.kernels, m.sms, m.colocate)
			d := math.Log(pred.Float()) - math.Log(m.sample.Actual.Float())
			sum += d * d
		}
		return sum / float64(len(samples))
	}
	search := func(samples []measured, set func(*Params, float64)) {
		// Golden-section over [0.2, 1.5] in log space.
		lo, hi := math.Log(0.2), math.Log(1.5)
		const phi = 0.6180339887498949
		eval := func(x float64) float64 {
			cand := p
			set(&cand, math.Exp(x))
			return loss(samples, cand)
		}
		a, b := lo, hi
		c := b - phi*(b-a)
		d := a + phi*(b-a)
		fc, fd := eval(c), eval(d)
		for i := 0; i < 40; i++ {
			if fc < fd {
				b, d, fd = d, c, fc
				c = b - phi*(b-a)
				fc = eval(c)
			} else {
				a, c, fc = c, d, fd
				d = a + phi*(b-a)
				fd = eval(d)
			}
		}
		set(&p, math.Exp((a+b)/2))
	}

	if len(iso) > 0 {
		for round := 0; round < 3; round++ {
			search(iso, func(q *Params, v float64) { q.DC = v })
			search(iso, func(q *Params, v float64) { q.DB = v })
		}
	}
	if len(coloc) > 0 {
		for round := 0; round < 3; round++ {
			search(coloc, func(q *Params, v float64) { q.PC = v })
			search(coloc, func(q *Params, v float64) { q.PB = v })
		}
	}
	return p
}

// --- ground-truth measurement harnesses -------------------------------

func measurePrefillLayer(cfg model.Config, spec gpusim.Spec, sl, hist, sms int) units.Seconds {
	s := sim.New()
	g := gpusim.New(s, spec)
	st := g.NewStream(smmask.Range(0, sms))
	for _, k := range cfg.PrefillLayerKernels(sl, hist, "profile") {
		g.Launch(st, k, nil)
	}
	var end sim.Time
	g.Synchronize(st, func() { end = s.Now() })
	s.RunAll(1 << 20)
	return end
}

func measureDecodeStep(cfg model.Config, spec gpusim.Spec, bs int, cl units.Tokens, sms int) units.Seconds {
	s := sim.New()
	g := gpusim.New(s, spec)
	st := g.NewStream(smmask.Range(0, sms))
	g.Launch(st, cfg.DecodeStepKernel(bs, cl, "profile"), nil)
	var end sim.Time
	g.Synchronize(st, func() { end = s.Now() })
	s.RunAll(1 << 20)
	return end
}

// measureColocated runs `reps` prefill layers on pm low SMs while decode
// steps loop on dm high SMs, returning the average prefill-layer duration
// and the average duration of decode steps completed during the overlap.
func measureColocated(cfg model.Config, spec gpusim.Spec, sl, bs int, cl units.Tokens, pm, dm int) (prefillLayer, decodeStep units.Seconds) {
	s := sim.New()
	g := gpusim.New(s, spec)
	pSt := g.NewStream(smmask.Range(0, pm))
	dSt := g.NewStream(smmask.Range(spec.NumSMs-dm, spec.NumSMs))

	const reps = 4
	for r := 0; r < reps; r++ {
		for _, k := range cfg.PrefillLayerKernels(sl, 0, "profile") {
			g.Launch(pSt, k, nil)
		}
	}
	var prefillEnd sim.Time
	prefillDone := false
	g.Synchronize(pSt, func() {
		prefillEnd = s.Now()
		prefillDone = true
	})

	stepDurs := []units.Seconds{}
	var relaunch func()
	relaunch = func() {
		g.Launch(dSt, cfg.DecodeStepKernel(bs, cl, "profile"), func(r gpusim.KernelRecord) {
			stepDurs = append(stepDurs, r.Duration())
			// Keep decode saturated until prefill finishes and at
			// least two steps completed (to guarantee a sample even
			// when steps are long).
			if !prefillDone || len(stepDurs) < 2 {
				relaunch()
			}
		})
	}
	relaunch()

	s.RunAll(1 << 22)
	prefillLayer = prefillEnd / reps
	sum := units.Seconds(0)
	for _, d := range stepDurs {
		sum += d
	}
	decodeStep = units.Over(sum, float64(len(stepDurs)))
	return prefillLayer, decodeStep
}
