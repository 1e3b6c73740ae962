// Package estimator implements Bullet's performance estimator (§3.2): a
// profile-augmented analytical roofline model predicting layer latency for
// concurrently executing prefill and decode phases under arbitrary SM
// partitions.
//
// The analytical core is Equation 2 of the paper:
//
//	t_i = max( c_i/C · M/(m_i·d_c·p_c),  b_i/B · M/(m_i·d_b·p_b) ) · (1-s_i)^-1
//
// where (d_c, d_b) are isolated decay factors and (p_c, p_b) co-location
// contention factors, both obtained by offline profiling (profile.go), and
// s_i is the wave-quantization idle ratio of Equation 1. The model is
// deliberately simpler than the simulated device (no per-kernel achievable
// efficiency, no bandwidth water-filling, linear rather than super-linear
// bandwidth scaling); the fitted scalars absorb those effects on average,
// which reproduces the paper's observation that the model is ~19% off in
// absolute duration yet ~88% accurate for SLO compliance classification
// (Fig. 15).
package estimator

import (
	"fmt"
	"math"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/units"
)

// Params are the profile-fitted scalars of Equation 2.
type Params struct {
	DC float64 // isolated compute decay d_c
	DB float64 // isolated bandwidth decay d_b
	PC float64 // co-located compute contention p_c
	PB float64 // co-located bandwidth contention p_b
}

// DefaultParams returns the purely analytical model (no decay, no
// contention), the starting point before profiling.
func DefaultParams() Params { return Params{DC: 1, DB: 1, PC: 1, PB: 1} }

// Estimator predicts phase latencies for a (model, device) pair.
type Estimator struct {
	cfg    model.Config
	spec   gpusim.Spec
	params Params

	// Online multiplicative corrections (§3.3.2): EWMA of observed /
	// predicted per phase, bounded to avoid runaway feedback.
	prefillCorr float64
	decodeCorr  float64

	// feedbackOff freezes the online corrections (ablation switch).
	feedbackOff bool

	// ks is the kernel-list scratch buffer a memo miss or a new decode
	// state rebuilds; predictions run many times per scheduling cycle and
	// must not allocate per call. seq and hist are a memo miss's
	// one-sequence prefill batch (hist stays 0).
	ks        []gpusim.Kernel
	seq, hist [1]int

	// memo holds the raw (uncorrected) Eq. 2 prefill terms by key: an
	// open-addressing table with linear probing, allocated once in New
	// and cleared whole, never regrown, when memoLimit keys fill it.
	// memoLen counts the filled slots.
	memo    []memoSlot
	memoLen int

	// step is the aggregated decode-step kernel of the last decode state
	// priced, (stepBatch, stepCtx) with stepCtx the bits of avgCtx; one
	// Decide prices a single decode state at every SM level.
	step      gpusim.Kernel
	stepBatch int
	stepCtx   uint64
}

// The prefill memo's shape: memoSlots slots of 24 B (96 KB), cleared when
// memoLimit of them are full so that linear probes stay short. A deep
// waiting queue keeps up to about 95 prompts × 19 (SMs, co-located)
// pairs live at once, which a direct-mapped table of this size thrashes.
const (
	memoBits  = 12
	memoSlots = 1 << memoBits
	memoLimit = memoSlots / 2
)

// memoSlot caches the raw Eq. 2 time of one prefill layer and of the
// LM-head row for one key.
type memoSlot struct {
	key   uint64 // memoKey's value; 0 marks an empty slot
	layer units.Seconds
	head  units.Seconds
}

// memoKey packs a prefill prediction's inputs into a nonzero word, or
// returns 0 when they cannot be packed (non-positive or huge), which
// sends the call around the memo to the uncached path and its panics.
func memoKey(newTokens, sms int, colocated bool) uint64 {
	t, m := uint64(newTokens), uint64(sms)
	if newTokens <= 0 || sms <= 0 || t >= 1<<40 || m >= 1<<20 {
		return 0
	}
	k := t<<21 | m<<1
	if colocated {
		k |= 1
	}
	return k
}

const (
	corrAlpha = 0.3
	corrMin   = 0.25
	corrMax   = 4.0
)

// New creates an estimator with the given fitted parameters.
func New(cfg model.Config, spec gpusim.Spec, p Params) *Estimator {
	if p.DC <= 0 || p.DB <= 0 || p.PC <= 0 || p.PB <= 0 {
		panic(fmt.Sprintf("estimator: non-positive params %+v", p))
	}
	return &Estimator{cfg: cfg, spec: spec, params: p, prefillCorr: 1, decodeCorr: 1,
		memo: make([]memoSlot, memoSlots)}
}

// Params returns the fitted parameters.
func (e *Estimator) Params() Params { return e.params }

// Corrections returns the current online correction factors (prefill,
// decode).
func (e *Estimator) Corrections() (float64, float64) { return e.prefillCorr, e.decodeCorr }

// kernelTime applies Equation 2 to a single kernel on m SMs.
func (e *Estimator) kernelTime(k gpusim.Kernel, m int, colocated bool) units.Seconds {
	if m <= 0 {
		panic(fmt.Sprintf("estimator: %d SMs", m))
	}
	p := e.params
	pc, pb := 1.0, 1.0
	if colocated {
		pc, pb = p.PC, p.PB
	}
	M := float64(e.spec.NumSMs)
	frac := float64(m) / M
	ct := units.Seconds(0)
	if k.FLOPs > 0 {
		ct = units.Over(k.FLOPs.Div(e.spec.PeakFLOPS), frac*p.DC*pc)
	}
	bt := units.Seconds(0)
	if k.Bytes > 0 {
		bt = units.Over(k.Bytes.Div(e.spec.PeakBW), frac*p.DB*pb)
	}
	t := units.Max(ct, bt)
	if k.CommBytes > 0 && e.spec.LinkBW > 0 {
		if lt := k.CommBytes.Div(e.spec.LinkBW); lt > t {
			t = lt
		}
	}
	wave := 1 - gpusim.WaveIdleRatio(k.Grid, m)
	return units.Over(t, wave)
}

// prefillTerms returns the raw Eq. 2 time of one prefill layer over
// newTokens tokens and of the LM-head row for the first token, on sms
// SMs. For one estimator they are a pure function of the arguments (the
// model, the device and Params are fixed in New), so a memo hit returns
// the very floats a recomputation would.
//
//bullet:hotpath
func (e *Estimator) prefillTerms(newTokens, sms int, colocated bool) (layer, head units.Seconds) {
	key := memoKey(newTokens, sms, colocated)
	if key == 0 {
		return e.rawPrefillTerms(newTokens, sms, colocated)
	}
	home := (key * 0x9E3779B97F4A7C15) >> (64 - memoBits)
	i := home
	for {
		s := &e.memo[i]
		if s.key == key {
			return s.layer, s.head
		}
		if s.key == 0 {
			break
		}
		i = (i + 1) & (memoSlots - 1)
	}
	layer, head = e.rawPrefillTerms(newTokens, sms, colocated)
	if e.memoLen == memoLimit {
		clear(e.memo)
		e.memoLen = 0
		i = home
	}
	e.memo[i] = memoSlot{key: key, layer: layer, head: head}
	e.memoLen++
	return layer, head
}

// rawPrefillTerms is prefillTerms without the memo.
func (e *Estimator) rawPrefillTerms(newTokens, sms int, colocated bool) (layer, head units.Seconds) {
	e.seq[0] = newTokens
	e.ks = e.cfg.AppendLayerKernels(e.ks[:0], e.seq[:], e.hist[:], 0, 0, "")
	for _, k := range e.ks {
		layer += e.kernelTime(k, sms, colocated)
	}
	return layer, e.kernelTime(e.cfg.LMHeadKernel(1, ""), sms, colocated)
}

// PrefillLayerTime predicts one decoder layer of prefill over newTokens
// tokens on sms SMs.
//
//bullet:hotpath
func (e *Estimator) PrefillLayerTime(newTokens, sms int, colocated bool) units.Seconds {
	layer, _ := e.prefillTerms(newTokens, sms, colocated)
	return units.Scale(layer, e.prefillCorr)
}

// PrefillRemainingTime predicts the time to finish a prefill that still
// has layersLeft layers to run.
func (e *Estimator) PrefillRemainingTime(newTokens, layersLeft, sms int, colocated bool) units.Seconds {
	if layersLeft <= 0 {
		return 0
	}
	return units.Scale(e.PrefillLayerTime(newTokens, sms, colocated), float64(layersLeft))
}

// PrefillTotalTime predicts a full prefill pass (all layers plus the LM
// head row for the first token).
//
//bullet:hotpath
func (e *Estimator) PrefillTotalTime(newTokens, sms int, colocated bool) units.Seconds {
	layer, head := e.prefillTerms(newTokens, sms, colocated)
	t := units.Scale(units.Scale(layer, e.prefillCorr), float64(e.cfg.NumLayers))
	return t + units.Scale(head, e.prefillCorr)
}

// DecodeStepTime predicts one full decode iteration (all layers + LM head,
// launched as a CUDA graph) for a batch with avgCtx average context. The
// aggregated kernel is rebuilt only when (batch, avgCtx) changes.
//
//bullet:hotpath
func (e *Estimator) DecodeStepTime(batch int, avgCtx units.Tokens, sms int, colocated bool) units.Seconds {
	if batch <= 0 {
		return 0
	}
	if ctx := math.Float64bits(avgCtx.Float()); batch != e.stepBatch || ctx != e.stepCtx {
		k, ks := e.cfg.DecodeStepKernelScratch(e.ks, batch, avgCtx, "")
		e.ks = ks
		k.Efficiency = 0 // the estimator does not know device efficiencies
		e.step, e.stepBatch, e.stepCtx = k, batch, ctx
	}
	return units.Scale(e.kernelTime(e.step, sms, colocated), e.decodeCorr)
}

// ObservePrefill feeds back an observed prefill-layer duration against the
// prediction made for it, refining future predictions (§3.3.2).
func (e *Estimator) ObservePrefill(predicted, actual units.Seconds) {
	if e.feedbackOff {
		return
	}
	e.prefillCorr = updateCorr(e.prefillCorr, predicted, actual)
}

// ObserveDecode feeds back an observed decode-step duration.
func (e *Estimator) ObserveDecode(predicted, actual units.Seconds) {
	if e.feedbackOff {
		return
	}
	e.decodeCorr = updateCorr(e.decodeCorr, predicted, actual)
}

func updateCorr(corr float64, predicted, actual units.Seconds) float64 {
	if predicted <= 0 || actual <= 0 {
		return corr
	}
	// predicted already includes corr; extract the raw model value so the
	// EWMA tracks actual/raw.
	raw := units.Over(predicted, corr)
	target := units.Ratio(actual, raw)
	next := corr*(1-corrAlpha) + target*corrAlpha
	return math.Min(corrMax, math.Max(corrMin, next))
}

// SetFeedbackEnabled toggles the online refinement loop (§3.3.2); the
// ablation experiments disable it to isolate the analytical model.
func (e *Estimator) SetFeedbackEnabled(on bool) { e.feedbackOff = !on }

// ResetCorrections restores the neutral online state.
func (e *Estimator) ResetCorrections() {
	e.prefillCorr, e.decodeCorr = 1, 1
}
