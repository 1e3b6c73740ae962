// Package sched implements Bullet's SLO-aware task scheduler (§3.3,
// Algorithm 1): at every layer-wise scheduling cycle it tracks prefill and
// decode progress, predicts TTFT and TPOT with the performance estimator,
// and searches SM partitions that maximize throughput subject to the
// latency targets — shrinking the decode allocation when there is slack,
// balancing when both targets are at risk, shrinking prefill when only
// TPOT is violated, and temporarily pausing decode when TTFT cannot be
// rescued any other way.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

// WaitingReq is a queued request not yet in prefill.
type WaitingReq struct {
	Arrival     sim.Time
	InputTokens int
	// Weight is the QoS fairness weight in (0, 1]: 1 for premium (and
	// for every request when QoS is off — the zero value reads as 1), a
	// class's reciprocal SLO scale otherwise. A lower weight stretches
	// the deadline and discounts the request's predicted-TTFT
	// contribution by exactly the slack its class's SLO grants.
	Weight float64
}

// weight returns the effective fairness weight (zero value reads as 1,
// so QoS-off paths are bit-identical: dividing or scaling by 1.0 is
// exact in IEEE arithmetic).
func (w WaitingReq) weight() float64 {
	if w.Weight == 0 {
		return 1
	}
	return w.Weight
}

// Deadline returns the latest acceptable first-token time under the SLO,
// with the TTFT budget stretched by the reciprocal fairness weight —
// Algorithm 1's deadline ordering becomes weighted fairness across
// tenant classes.
func (w WaitingReq) Deadline(slo metrics.SLO) sim.Time {
	return w.Arrival + units.Over(units.FromMs(slo.NormTTFTMs*float64(w.InputTokens)), w.weight())
}

// PrefillStatus is the running prefill batch's progress (P_k).
type PrefillStatus struct {
	Active      bool
	Tokens      int // np: total tokens in the batch
	LayersDone  int // l_k
	StartTime   sim.Time
	Arrivals    []sim.Time // per batched request
	InputTokens []int      // per batched request
	// Weights are the per-request QoS fairness weights (nil, or a zero
	// entry, reads as 1 — see WaitingReq.Weight).
	Weights []float64
}

// DecodeStatus is the decode batch's progress (D_k).
type DecodeStatus struct {
	Batch     int          // n_d
	AvgCtx    units.Tokens // cl
	Elapsed   []units.Seconds
	Generated []int
}

// State is the system snapshot S_k read from the shared metadata buffer.
type State struct {
	Now        sim.Time
	Prefill    PrefillStatus
	Waiting    []WaitingReq
	Decode     DecodeStatus
	PrefillSMs int // u_k
	DecodeSMs  int // v_k
}

// Decision is the scheduler's output R_{k+1}.
type Decision struct {
	PrefillSMs  int
	DecodeSMs   int
	PauseDecode bool
	// Branch records which Algorithm 1 arm produced the decision, for
	// tracing and tests: "idle", "prefill-only", "decode-only",
	// "reduce-decode", "balance", "reduce-prefill", "pause-decode",
	// "handover".
	Branch string
	// PredNormTTFT and PredTPOTMs are the P90 predictions the decision
	// was based on.
	PredNormTTFT float64
	PredTPOTMs   float64
}

// Config shapes the search space.
type Config struct {
	TotalLayers   int
	LayerGroup    int // layers launched per prefill scheduling cycle
	NumSMs        int
	Levels        []int // available SM counts, ascending
	MinPrefillSMs int
	MinDecodeSMs  int
}

// Scheduler evaluates Algorithm 1 against an estimator and SLO pair.
type Scheduler struct {
	est *estimator.Estimator
	slo metrics.SLO
	cfg Config

	// Prediction scratch buffers, resliced to [:0] each call: Decide
	// evaluates the predictors once per candidate SM level, so they must
	// not allocate per call.
	norms []float64
	tpots []float64
}

// New creates a scheduler. The config must list at least one SM level.
func New(est *estimator.Estimator, slo metrics.SLO, cfg Config) *Scheduler {
	if len(cfg.Levels) == 0 || cfg.TotalLayers <= 0 || cfg.NumSMs <= 0 {
		panic(fmt.Sprintf("sched: invalid config %+v", cfg))
	}
	if cfg.LayerGroup <= 0 {
		cfg.LayerGroup = 1
	}
	if cfg.MinPrefillSMs <= 0 {
		cfg.MinPrefillSMs = cfg.Levels[0]
	}
	if cfg.MinDecodeSMs <= 0 {
		cfg.MinDecodeSMs = cfg.Levels[0]
	}
	if !sort.IntsAreSorted(cfg.Levels) {
		panic("sched: levels not sorted")
	}
	return &Scheduler{est: est, slo: slo, cfg: cfg}
}

// SLO returns the targets the scheduler enforces.
func (s *Scheduler) SLO() metrics.SLO { return s.slo }

// SetCapacity re-targets Algorithm 1 at a changed SM budget — the
// resilience path after SM degradation (or recovery) shrinks or restores
// the healthy set and the resource manager rebuilds its level table.
// Admission minimums are clamped down to the new smallest level so the
// scheduler can still produce feasible splits on a shrunken device.
func (s *Scheduler) SetCapacity(numSMs int, levels []int) {
	if numSMs <= 0 || len(levels) == 0 {
		panic(fmt.Sprintf("sched: invalid capacity %d SMs, levels %v", numSMs, levels))
	}
	if !sort.IntsAreSorted(levels) {
		panic(fmt.Sprintf("sched: capacity levels not sorted: %v", levels))
	}
	s.cfg.NumSMs = numSMs
	s.cfg.Levels = append([]int(nil), levels...)
	if s.cfg.MinPrefillSMs > levels[0] {
		s.cfg.MinPrefillSMs = levels[0]
	}
	if s.cfg.MinDecodeSMs > levels[0] {
		s.cfg.MinDecodeSMs = levels[0]
	}
}

// Capacity returns the SM budget Algorithm 1 currently optimizes over.
func (s *Scheduler) Capacity() int { return s.cfg.NumSMs }

// sloQuantile is the percentile Algorithm 1's predictions report.
const sloQuantile = 0.9

// predictNormTTFT returns the P90 predicted normalized TTFT (ms/token)
// across the running batch and the waiting queue, if prefill runs on pm
// SMs from now on. It stops early and reports over once the requests
// priced so far prove P90/NormTTFTMs > bound (see overBound); the P90 it
// returns then means nothing.
//
//bullet:hotpath
func (s *Scheduler) predictNormTTFT(st *State, pm int, coloc bool, bound float64) (p90 float64, over bool) {
	s.norms = s.norms[:0]
	n := len(st.Waiting)
	if st.Prefill.Active {
		n += len(st.Prefill.Arrivals)
	}
	b := newOverBound(n, s.slo.NormTTFTMs, bound)
	rem := units.Seconds(0)
	if st.Prefill.Active {
		layersLeft := s.cfg.TotalLayers - st.Prefill.LayersDone
		rem = s.est.PrefillRemainingTime(st.Prefill.Tokens, layersLeft, pm, coloc)
		for i, arr := range st.Prefill.Arrivals {
			ttft := (st.Now - arr) + rem
			wt := 1.0
			if i < len(st.Prefill.Weights) && st.Prefill.Weights[i] != 0 {
				wt = st.Prefill.Weights[i]
			}
			x := wt * 1000 * ttft.Float() / float64(st.Prefill.InputTokens[i])
			if b.over(x) {
				return 0, true
			}
			s.norms = append(s.norms, x)
		}
	}
	// Queued requests wait for the running prefill plus everything ahead
	// of them (Algorithm 1 lines 4-6). Each contribution is scaled by the
	// request's fairness weight, so the P90 the SM split optimizes is the
	// weighted violation Algorithm 1 should balance across classes.
	ahead := rem
	for _, w := range st.Waiting {
		own := s.est.PrefillTotalTime(w.InputTokens, pm, coloc)
		ahead += own
		ttft := (st.Now - w.Arrival) + ahead
		x := w.weight() * 1000 * ttft.Float() / float64(w.InputTokens)
		if b.over(x) {
			return 0, true
		}
		s.norms = append(s.norms, x)
	}
	if len(s.norms) == 0 {
		return 0, false
	}
	return metrics.PercentileInPlace(s.norms, sloQuantile), false
}

// normTTFT is predictNormTTFT without a bound.
func (s *Scheduler) normTTFT(st *State, pm int, coloc bool) float64 {
	p90, _ := s.predictNormTTFT(st, pm, coloc, math.Inf(1))
	return p90
}

// overBound proves, from some of the n elements of a P90, that the P90
// divided by a target div is above a bound. PercentileInPlace returns
// s[lo]*(1-frac) + s[lo+1]*frac over the sorted s, which is at least
// h(s[lo]), where h(x) = x*(1-frac) + x*frac, because every step is
// monotone in IEEE arithmetic. Counting x when h(x)/div > bound is
// monotone on finite x, and NaN (which cmp.Less sorts first) and -Inf
// never count, so once n-lo elements count, either s[lo] counts and
// P90/div > bound, or s[lo] is +Inf and the P90 is +Inf or NaN
// (DESIGN.md §5). A target that is not > 0, or a bound of +Inf or NaN,
// proves nothing: a negative target flips the division's direction.
type overBound struct {
	need, seen             int // need 0 proves nothing
	keep, frac, div, bound float64
}

func newOverBound(n int, div, bound float64) overBound {
	if n == 0 || !(div > 0) || !(bound < math.Inf(1)) {
		return overBound{}
	}
	// PercentileInPlace's expressions; n == 1 gives lo 0 and frac 0,
	// where the P90 is the element itself.
	pos := sloQuantile * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	return overBound{need: n - lo, keep: 1 - frac, frac: frac, div: div, bound: bound}
}

// over counts x and reports whether the elements counted so far prove
// the P90 over the bound.
func (b *overBound) over(x float64) bool {
	if b.need == 0 || !((x*b.keep+x*b.frac)/b.div > b.bound) {
		return false
	}
	b.seen++
	return b.seen >= b.need
}

// predictTPOTMs returns the P90 predicted TPOT (ms) if decode runs its
// next step on dm SMs, optionally after an extra stall of pause seconds.
//
//bullet:hotpath
func (s *Scheduler) predictTPOTMs(st *State, dm int, coloc bool, pause units.Seconds) float64 {
	d := st.Decode
	if d.Batch == 0 {
		return 0
	}
	step := s.est.DecodeStepTime(d.Batch, d.AvgCtx, dm, coloc)
	s.tpots = s.tpots[:0]
	for i := range d.Elapsed {
		gen := d.Generated[i]
		s.tpots = append(s.tpots, 1000*(d.Elapsed[i]+step+pause).Float()/float64(gen+1))
	}
	return metrics.PercentileInPlace(s.tpots, sloQuantile)
}

// searchLevels returns the index of the first level not below n — an
// open-coded sort.SearchInts, which would otherwise allocate a closure
// per probe.
func searchLevels(lv []int, n int) int {
	lo, hi := 0, len(lv)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lv[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// complement returns the largest level not exceeding NumSMs-n, clamped to
// the smallest level.
//
//bullet:hotpath
func (s *Scheduler) complement(n int) int {
	rest := s.cfg.NumSMs - n
	lv := s.cfg.Levels
	i := searchLevels(lv, rest+1) - 1
	if i < 0 {
		return lv[0]
	}
	return lv[i]
}

// levelAtLeast returns the smallest level ≥ n (or the largest level).
//
//bullet:hotpath
func (s *Scheduler) levelAtLeast(n int) int {
	lv := s.cfg.Levels
	i := searchLevels(lv, n)
	if i >= len(lv) {
		return lv[len(lv)-1]
	}
	return lv[i]
}

// Decide evaluates Algorithm 1 on a snapshot. The deep depth budget
// carries the allocation check through the predictors into the
// estimator and the model's kernel builders — the full water-filling
// re-rate must not allocate.
//
//bullet:hotpath depth=6
func (s *Scheduler) Decide(st State) Decision {
	M := s.cfg.NumSMs
	// Before the first allocation is published the snapshot carries
	// zeros; treat the phases as owning the full device.
	if st.PrefillSMs <= 0 {
		st.PrefillSMs = M
	}
	if st.DecodeSMs <= 0 {
		st.DecodeSMs = M
	}
	prefillBusy := st.Prefill.Active || len(st.Waiting) > 0
	decodeBusy := st.Decode.Batch > 0

	switch {
	case !prefillBusy && !decodeBusy:
		return Decision{PrefillSMs: M, DecodeSMs: M, Branch: "idle"}
	case !decodeBusy:
		return Decision{PrefillSMs: M, DecodeSMs: M, Branch: "prefill-only",
			PredNormTTFT: s.normTTFT(&st, M, false)}
	case !prefillBusy:
		return Decision{PrefillSMs: M, DecodeSMs: M, Branch: "decode-only",
			PredTPOTMs: s.predictTPOTMs(&st, M, false, 0)}
	}

	// Handover: when the running prefill will finish within roughly one
	// decode step, let decode deliberately share SMs with the prefill
	// tail (§3.4.2's smooth transition).
	if st.Prefill.Active {
		layersLeft := s.cfg.TotalLayers - st.Prefill.LayersDone
		rem := s.est.PrefillRemainingTime(st.Prefill.Tokens, layersLeft, st.PrefillSMs, true)
		step := s.est.DecodeStepTime(st.Decode.Batch, st.Decode.AvgCtx, st.DecodeSMs, true)
		if rem < step && len(st.Waiting) == 0 {
			return Decision{PrefillSMs: st.PrefillSMs, DecodeSMs: M, Branch: "handover",
				PredNormTTFT: s.normTTFT(&st, st.PrefillSMs, true),
				PredTPOTMs:   s.predictTPOTMs(&st, M, true, 0)}
		}
	}

	// The current split's prices go to the branch, which reuses them for
	// any level equal to the current one.
	ttft := s.normTTFT(&st, st.PrefillSMs, true)
	tpot := s.predictTPOTMs(&st, st.DecodeSMs, true, 0)
	ttftOK := ttft <= s.slo.NormTTFTMs
	tpotOK := tpot <= s.slo.TPOTMs

	switch {
	case ttftOK && tpotOK:
		return s.reduceDecodeSM(&st, false, ttft, tpot)
	case !ttftOK && !tpotOK:
		return s.setBalancedSM(&st, ttft, tpot)
	case !tpotOK:
		return s.reducePrefillSM(&st, ttft, tpot)
	default: // only TTFT violated
		return s.reduceDecodeSM(&st, true, ttft, tpot)
	}
}

// ttftAt prices TTFT with prefill on pm co-located SMs, reusing cur,
// Decide's price at the current prefill split.
func (s *Scheduler) ttftAt(st *State, pm int, cur float64) float64 {
	if pm == st.PrefillSMs {
		return cur
	}
	return s.normTTFT(st, pm, true)
}

// tpotAt prices TPOT with decode on dm co-located SMs and no pause,
// reusing cur, Decide's price at the current decode split.
func (s *Scheduler) tpotAt(st *State, dm int, cur float64) float64 {
	if dm == st.DecodeSMs {
		return cur
	}
	return s.predictTPOTMs(st, dm, true, 0)
}

// reduceDecodeSM shrinks the decode allocation to the smallest level that
// keeps TPOT within target, giving the freed SMs to prefill. When
// allowPause is set (TTFT already violated) and even the minimum decode
// allocation cannot rescue TTFT, decode is paused for one cycle provided
// the pause itself keeps TPOT within target. ttftCur and tpotCur are the
// current split's prices.
func (s *Scheduler) reduceDecodeSM(st *State, allowPause bool, ttftCur, tpotCur float64) Decision {
	M := s.cfg.NumSMs
	bestDM := -1
	var bestTPOT float64
	for _, dm := range s.cfg.Levels {
		if dm < s.cfg.MinDecodeSMs {
			continue
		}
		if t := s.tpotAt(st, dm, tpotCur); t <= s.slo.TPOTMs {
			bestDM, bestTPOT = dm, t
			break // levels ascend: first feasible is the smallest
		}
	}
	if bestDM < 0 {
		// No allocation meets TPOT; decode takes everything it can
		// while prefill keeps its minimum.
		pm := s.levelAtLeast(s.cfg.MinPrefillSMs)
		dm := s.complement(pm)
		return Decision{PrefillSMs: pm, DecodeSMs: dm, Branch: "reduce-decode",
			PredNormTTFT: s.ttftAt(st, pm, ttftCur),
			PredTPOTMs:   s.tpotAt(st, dm, tpotCur)}
	}
	pm := s.complement(bestDM)
	if pm < s.cfg.MinPrefillSMs {
		pm = s.levelAtLeast(s.cfg.MinPrefillSMs)
	}
	ttft := s.ttftAt(st, pm, ttftCur)
	if allowPause && ttft > s.slo.NormTTFTMs {
		// Even prefill-favoured splits violate TTFT: consider pausing
		// decode for one layer group and giving prefill the full GPU.
		// When no prefill batch is running yet (pure queueing pressure),
		// size the pause from the head-of-queue request.
		tokens := st.Prefill.Tokens
		if tokens <= 0 && len(st.Waiting) > 0 {
			tokens = st.Waiting[0].InputTokens
		}
		if tokens <= 0 {
			tokens = 1
		}
		pause := units.Scale(s.est.PrefillLayerTime(tokens, M, false),
			float64(s.cfg.LayerGroup))
		if t := s.predictTPOTMs(st, M, false, pause); t <= s.slo.TPOTMs {
			return Decision{PrefillSMs: M, DecodeSMs: s.cfg.MinDecodeSMs,
				PauseDecode: true, Branch: "pause-decode",
				PredNormTTFT: s.normTTFT(st, M, false),
				PredTPOTMs:   t}
		}
	}
	return Decision{PrefillSMs: pm, DecodeSMs: bestDM, Branch: "reduce-decode",
		PredNormTTFT: ttft, PredTPOTMs: bestTPOT}
}

// setBalancedSM searches complementary splits for the one minimizing the
// worst normalized SLO violation (Algorithm 1 line 13), from the largest
// prefill level down and TTFT first. A level whose TTFT alone scores
// above the best so far cannot win, so its TPOT is never priced, and its
// TTFT pricing stops as soon as enough requests prove that. Updating on
// ties keeps the smallest level among equal scores, the one an
// ascending strict scan keeps (DESIGN.md §5). ttftCur and tpotCur are the
// current split's prices.
func (s *Scheduler) setBalancedSM(st *State, ttftCur, tpotCur float64) Decision {
	bestScore := math.Inf(1)
	var best Decision
	lv := s.cfg.Levels
	for i := len(lv) - 1; i >= 0; i-- {
		pm := lv[i]
		if pm < s.cfg.MinPrefillSMs {
			continue
		}
		dm := s.complement(pm)
		if dm < s.cfg.MinDecodeSMs || pm+dm > s.cfg.NumSMs {
			continue
		}
		ttft := ttftCur
		if pm != st.PrefillSMs {
			var over bool
			if ttft, over = s.predictNormTTFT(st, pm, true, bestScore); over {
				continue
			}
		}
		// Skipping here is exact: the score could only be above
		// bestScore, NaN, or +Inf while bestScore is still +Inf, and then
		// the fallback below ignores best.
		if !(ttft/s.slo.NormTTFTMs <= bestScore) {
			continue
		}
		tpot := s.tpotAt(st, dm, tpotCur)
		score := math.Max(ttft/s.slo.NormTTFTMs, tpot/s.slo.TPOTMs)
		if score <= bestScore {
			bestScore = score
			best = Decision{PrefillSMs: pm, DecodeSMs: dm, Branch: "balance",
				PredNormTTFT: ttft, PredTPOTMs: tpot}
		}
	}
	if math.IsInf(bestScore, 1) {
		M := s.cfg.NumSMs
		half := s.levelAtLeast(M / 2)
		return Decision{PrefillSMs: half, DecodeSMs: s.complement(half), Branch: "balance"}
	}
	return best
}

// reducePrefillSM shrinks prefill until TPOT recovers, keeping prefill at
// least at its minimum. ttftCur and tpotCur are the current split's
// prices.
func (s *Scheduler) reducePrefillSM(st *State, ttftCur, tpotCur float64) Decision {
	// Walk prefill allocations downward; give decode the complement.
	lv := s.cfg.Levels
	for i := len(lv) - 1; i >= 0; i-- {
		pm := lv[i]
		if pm > st.PrefillSMs || pm < s.cfg.MinPrefillSMs {
			continue
		}
		dm := s.complement(pm)
		if dm < s.cfg.MinDecodeSMs {
			continue
		}
		if t := s.tpotAt(st, dm, tpotCur); t <= s.slo.TPOTMs {
			return Decision{PrefillSMs: pm, DecodeSMs: dm, Branch: "reduce-prefill",
				PredNormTTFT: s.ttftAt(st, pm, ttftCur), PredTPOTMs: t}
		}
	}
	pm := s.levelAtLeast(s.cfg.MinPrefillSMs)
	dm := s.complement(pm)
	return Decision{PrefillSMs: pm, DecodeSMs: dm, Branch: "reduce-prefill",
		PredNormTTFT: s.ttftAt(st, pm, ttftCur),
		PredTPOTMs:   s.tpotAt(st, dm, tpotCur)}
}
