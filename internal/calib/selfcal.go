package calib

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/units"
)

// calibTag marks the measured kernels.
const calibTag = "calib"

// The self-calibration sweep covers the operating range the serving
// experiments actually visit.
var (
	// selfCalPrefillTokens are the prefill chunk sizes measured per
	// operator.
	selfCalPrefillTokens = []int{64, 128, 256, 512, 1024, 2048, 4096}
	// selfCalDecodeBatches are the decode-step batch sizes measured.
	selfCalDecodeBatches = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	// selfCalDecodeCtxs are the average decode context lengths measured
	// at each batch size (context spreads the decode-step distribution).
	selfCalDecodeCtxs = []int{128, 512, 2048}
)

// SelfCalibrate runs deterministic micro-benchmarks of the model's
// kernels against the analytic simulator — solo on several SM
// allocations and co-located with a decode interferer — and fits the
// resulting latency samples into a sampled-backend table referenced to
// the device's full SM count. The dispersion of each operator's
// distribution is the genuine spread of its analytic latency across
// allocations and contention regimes, so sampled-backend runs explore
// the fidelity envelope of the fluid model without external profiles.
func SelfCalibrate(cfg model.Config, spec gpusim.Spec) (*gpusim.LatencyTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("calib: self-calibrate: %v", err)
	}

	full := smmask.Full(spec.NumSMs)
	masks := []smmask.Mask{
		full,
		full.Prefix(spec.NumSMs * 3 / 4),
		full.Prefix(spec.NumSMs / 2),
	}

	var rows []Row
	for _, t := range selfCalPrefillTokens {
		for _, hist := range []int{0, t} {
			ks := cfg.PrefillLayerKernels(t, hist, calibTag)
			ks = append(ks, cfg.LMHeadKernel(t, calibTag))
			for _, m := range masks {
				rows = measure(spec, ks, m, nil, rows)
			}
			// Co-located regime: the same kernels under a full-mask
			// decode-step interferer, the spatial-sharing case Bullet
			// actually runs in.
			inter := cfg.DecodeStepKernel(64, units.Tokens(512), "bg")
			rows = measure(spec, ks, full.Prefix(spec.NumSMs*2/3), &inter, rows)
		}
	}
	for _, b := range selfCalDecodeBatches {
		for _, c := range selfCalDecodeCtxs {
			ks := []gpusim.Kernel{cfg.DecodeStepKernel(b, units.Tokens(c), calibTag)}
			for _, m := range masks {
				rows = measure(spec, ks, m, nil, rows)
			}
		}
		rows = measure(spec, []gpusim.Kernel{cfg.LMHeadKernel(b, calibTag)}, full, nil, rows)
	}

	table, err := Fit(rows, FitOptions{RefSMs: spec.NumSMs})
	if err != nil {
		return nil, fmt.Errorf("calib: self-calibrate %s/%s: %v", cfg.Name, spec.Name, err)
	}
	return table, nil
}

// measure executes ks sequentially on one stream of a fresh device —
// masked to m, optionally against a full-mask interferer kernel — and
// appends one Row per measured kernel. Latencies are wall durations from
// residency to completion, excluding launch overhead.
func measure(spec gpusim.Spec, ks []gpusim.Kernel, m smmask.Mask, interferer *gpusim.Kernel, dst []Row) []Row {
	s := sim.New()
	g := gpusim.New(s, spec)
	if interferer != nil {
		bg := g.NewStream(g.FullMask())
		g.Launch(bg, *interferer, nil)
	}
	st := g.NewStream(m)
	for _, k := range ks {
		g.Launch(st, k, func(r gpusim.KernelRecord) {
			dst = append(dst, Row{Op: r.Name, Tokens: k.Tokens, Latency: r.Duration()})
		})
	}
	s.RunAll(1 << 20)
	return dst
}
