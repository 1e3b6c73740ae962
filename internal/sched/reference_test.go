package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
)

// refScheduler is Decide as it was before the balanced search scanned
// downward with a TTFT bound and before the branches reused the current
// split's prices: every branch prices every level it visits in full.
// It shares the scheduler's estimator, SLO and config, and keeps its own
// scratch.
type refScheduler struct {
	s            *Scheduler
	norms, tpots []float64
}

func (r *refScheduler) predictNormTTFT(st State, pm int, coloc bool) float64 {
	s := r.s
	r.norms = r.norms[:0]
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
			r.norms = append(r.norms, wt*1000*ttft.Float()/float64(st.Prefill.InputTokens[i]))
		}
	}
	ahead := rem
	for _, w := range st.Waiting {
		own := s.est.PrefillTotalTime(w.InputTokens, pm, coloc)
		ahead += own
		ttft := (st.Now - w.Arrival) + ahead
		r.norms = append(r.norms, w.weight()*1000*ttft.Float()/float64(w.InputTokens))
	}
	if len(r.norms) == 0 {
		return 0
	}
	return metrics.PercentileInPlace(r.norms, 0.9)
}

func (r *refScheduler) predictTPOTMs(st State, dm int, coloc bool, pause units.Seconds) float64 {
	d := st.Decode
	if d.Batch == 0 {
		return 0
	}
	step := r.s.est.DecodeStepTime(d.Batch, d.AvgCtx, dm, coloc)
	r.tpots = r.tpots[:0]
	for i := range d.Elapsed {
		gen := d.Generated[i]
		r.tpots = append(r.tpots, 1000*(d.Elapsed[i]+step+pause).Float()/float64(gen+1))
	}
	return metrics.PercentileInPlace(r.tpots, 0.9)
}

func (r *refScheduler) Decide(st State) Decision {
	s := r.s
	M := s.cfg.NumSMs
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
			PredNormTTFT: r.predictNormTTFT(st, M, false)}
	case !prefillBusy:
		return Decision{PrefillSMs: M, DecodeSMs: M, Branch: "decode-only",
			PredTPOTMs: r.predictTPOTMs(st, M, false, 0)}
	}

	if st.Prefill.Active {
		layersLeft := s.cfg.TotalLayers - st.Prefill.LayersDone
		rem := s.est.PrefillRemainingTime(st.Prefill.Tokens, layersLeft, st.PrefillSMs, true)
		step := s.est.DecodeStepTime(st.Decode.Batch, st.Decode.AvgCtx, st.DecodeSMs, true)
		if rem < step && len(st.Waiting) == 0 {
			return Decision{PrefillSMs: st.PrefillSMs, DecodeSMs: M, Branch: "handover",
				PredNormTTFT: r.predictNormTTFT(st, st.PrefillSMs, true),
				PredTPOTMs:   r.predictTPOTMs(st, M, true, 0)}
		}
	}

	ttft := r.predictNormTTFT(st, st.PrefillSMs, true)
	tpot := r.predictTPOTMs(st, st.DecodeSMs, true, 0)
	ttftOK := ttft <= s.slo.NormTTFTMs
	tpotOK := tpot <= s.slo.TPOTMs

	switch {
	case ttftOK && tpotOK:
		return r.reduceDecodeSM(st, false)
	case !ttftOK && !tpotOK:
		return r.setBalancedSM(st)
	case !tpotOK:
		return r.reducePrefillSM(st)
	default:
		return r.reduceDecodeSM(st, true)
	}
}

func (r *refScheduler) reduceDecodeSM(st State, allowPause bool) Decision {
	s := r.s
	M := s.cfg.NumSMs
	bestDM := -1
	var bestTPOT float64
	for _, dm := range s.cfg.Levels {
		if dm < s.cfg.MinDecodeSMs {
			continue
		}
		if t := r.predictTPOTMs(st, dm, true, 0); t <= s.slo.TPOTMs {
			bestDM, bestTPOT = dm, t
			break
		}
	}
	if bestDM < 0 {
		pm := s.levelAtLeast(s.cfg.MinPrefillSMs)
		dm := s.complement(pm)
		return Decision{PrefillSMs: pm, DecodeSMs: dm, Branch: "reduce-decode",
			PredNormTTFT: r.predictNormTTFT(st, pm, true),
			PredTPOTMs:   r.predictTPOTMs(st, dm, true, 0)}
	}
	pm := s.complement(bestDM)
	if pm < s.cfg.MinPrefillSMs {
		pm = s.levelAtLeast(s.cfg.MinPrefillSMs)
	}
	ttft := r.predictNormTTFT(st, pm, true)
	if allowPause && ttft > s.slo.NormTTFTMs {
		tokens := st.Prefill.Tokens
		if tokens <= 0 && len(st.Waiting) > 0 {
			tokens = st.Waiting[0].InputTokens
		}
		if tokens <= 0 {
			tokens = 1
		}
		pause := units.Scale(s.est.PrefillLayerTime(tokens, M, false),
			float64(s.cfg.LayerGroup))
		if r.predictTPOTMs(st, M, false, pause) <= s.slo.TPOTMs {
			return Decision{PrefillSMs: M, DecodeSMs: s.cfg.MinDecodeSMs,
				PauseDecode: true, Branch: "pause-decode",
				PredNormTTFT: r.predictNormTTFT(st, M, false),
				PredTPOTMs:   r.predictTPOTMs(st, M, false, pause)}
		}
	}
	return Decision{PrefillSMs: pm, DecodeSMs: bestDM, Branch: "reduce-decode",
		PredNormTTFT: ttft, PredTPOTMs: bestTPOT}
}

func (r *refScheduler) setBalancedSM(st State) Decision {
	s := r.s
	bestScore := math.Inf(1)
	var best Decision
	for _, pm := range s.cfg.Levels {
		if pm < s.cfg.MinPrefillSMs {
			continue
		}
		dm := s.complement(pm)
		if dm < s.cfg.MinDecodeSMs || pm+dm > s.cfg.NumSMs {
			continue
		}
		ttft := r.predictNormTTFT(st, pm, true)
		tpot := r.predictTPOTMs(st, dm, true, 0)
		score := math.Max(ttft/s.slo.NormTTFTMs, tpot/s.slo.TPOTMs)
		if score < bestScore {
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

func (r *refScheduler) reducePrefillSM(st State) Decision {
	s := r.s
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
		if t := r.predictTPOTMs(st, dm, true, 0); t <= s.slo.TPOTMs {
			return Decision{PrefillSMs: pm, DecodeSMs: dm, Branch: "reduce-prefill",
				PredNormTTFT: r.predictNormTTFT(st, pm, true), PredTPOTMs: t}
		}
	}
	pm := s.levelAtLeast(s.cfg.MinPrefillSMs)
	dm := s.complement(pm)
	return Decision{PrefillSMs: pm, DecodeSMs: dm, Branch: "reduce-prefill",
		PredNormTTFT: r.predictNormTTFT(st, pm, true),
		PredTPOTMs:   r.predictTPOTMs(st, dm, true, 0)}
}

// byteSrc feeds the state generator from a byte string; once the string
// runs out every draw reads zero, so any fuzz input decodes to a case.
type byteSrc []byte

func (b *byteSrc) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// intn draws an int in [0, n) from two bytes.
func (b *byteSrc) intn(n int) int {
	return (int(b.next())<<8 | int(b.next())) % n
}

// pick draws one of vals.
func (b *byteSrc) pick(vals ...float64) float64 { return vals[int(b.next())%len(vals)] }

// decideCase is one generated scheduler and snapshot.
type decideCase struct {
	s  *Scheduler
	st State
}

// genDecideCase decodes a scheduler and a snapshot from src: SLO targets
// that are ordinary, zero, tiny, negative, +Inf or NaN; admission
// minimums and a degraded SM budget; queues up to 128 deep; QoS weights
// of 0, NaN and +Inf; arrivals after Now; and a Now or a decode elapsed
// time so large that the SM levels' small differences round away and
// scores tie exactly.
func genDecideCase(est *estimator.Estimator, src *byteSrc) decideCase {
	inf, nan := math.Inf(1), math.NaN()
	slo := metrics.SLO{
		NormTTFTMs: src.pick(1.5, 1.5, 3, 0.05, 0, -1.5, 1e-9, inf, nan, 40),
		TPOTMs:     src.pick(175, 175, 150, 20, 0, -1.5, 1e-9, inf, nan, 1e4),
	}
	numSMs, step := 108, 6
	if src.next()%4 == 0 { // a degraded device: fewer healthy SMs, its own levels
		numSMs = 48 + 6*src.intn(10)
		step = int(src.pick(6, 12))
	}
	var levels []int
	for n := step; n <= numSMs; n += step {
		levels = append(levels, n)
	}
	cfg := Config{
		TotalLayers:   32,
		LayerGroup:    1 + src.intn(4),
		NumSMs:        numSMs,
		Levels:        levels,
		MinPrefillSMs: int(src.pick(0, 0, 0, 12, 30, 60, 200)),
		MinDecodeSMs:  int(src.pick(0, 0, 0, 12, 30, 60, 200)),
	}
	s := New(est, slo, cfg)

	now := sim.Time(src.pick(10, 10, 10, 0.5, 1e13, 1e17))
	weight := func() float64 { return src.pick(0, 0, 0, 0, 1, 0.5, 0.25, nan, inf) }
	// Prompt lengths come from a fixed palette, so the estimator's memo
	// holds every prefill prediction the cases ask for.
	tokens := func() int { return promptPalette[int(src.next())%len(promptPalette)] }
	arrival := func() sim.Time {
		if now > 1e6 && src.next()%2 == 0 {
			return 0
		}
		return now + sim.Time(src.intn(2000)-1800)/1000 // up to 1.8 s ago, some after now
	}
	var st State
	st.Now = now
	if src.next()%3 != 0 {
		n := 1 + src.intn(8)
		st.Prefill = PrefillStatus{Active: true, LayersDone: src.intn(32), StartTime: now}
		qos := src.next()%3 == 0
		st.Prefill.Tokens = tokens()
		for i := 0; i < n; i++ {
			in := tokens()
			st.Prefill.Arrivals = append(st.Prefill.Arrivals, arrival())
			st.Prefill.InputTokens = append(st.Prefill.InputTokens, in)
			if qos {
				st.Prefill.Weights = append(st.Prefill.Weights, weight())
			}
		}
	}
	depth := 0
	switch src.next() % 4 {
	case 1:
		depth = 1 + src.intn(8)
	case 2, 3:
		depth = 16 + src.intn(113)
	}
	for i := 0; i < depth; i++ {
		st.Waiting = append(st.Waiting, WaitingReq{Arrival: arrival(), InputTokens: tokens(), Weight: weight()})
	}
	if src.next()%5 != 0 {
		st.Decode = DecodeStatus{Batch: 1 + src.intn(64), AvgCtx: units.Tokens(1 + src.intn(8000))}
		huge := src.pick(0, 0, 0, 1e13, 1e17)
		for i := 0; i < st.Decode.Batch; i++ {
			st.Decode.Elapsed = append(st.Decode.Elapsed, units.Seconds(huge+float64(src.intn(3000))/1000))
			st.Decode.Generated = append(st.Decode.Generated, src.intn(400))
		}
	}
	// The current split: unset (zero reads as the full device), a level,
	// or a count between levels.
	split := func() int {
		switch src.next() % 4 {
		case 0:
			return 0
		case 1:
			return 1 + src.intn(numSMs)
		}
		return levels[src.intn(len(levels))]
	}
	st.PrefillSMs, st.DecodeSMs = split(), split()
	return decideCase{s: s, st: st}
}

// promptPalette spans 1 to 16,384 tokens.
var promptPalette = []int{1, 7, 64, 100, 255, 512, 777, 1024, 1500, 2048,
	2500, 3000, 3333, 4096, 5000, 6000, 7000, 8192, 9999, 12000, 14000, 16384}

// sameDecision compares every Decision field, floats by their bits.
func sameDecision(a, b Decision) bool {
	return a.PrefillSMs == b.PrefillSMs && a.DecodeSMs == b.DecodeSMs &&
		a.PauseDecode == b.PauseDecode && a.Branch == b.Branch &&
		math.Float64bits(a.PredNormTTFT) == math.Float64bits(b.PredNormTTFT) &&
		math.Float64bits(a.PredTPOTMs) == math.Float64bits(b.PredTPOTMs)
}

// checkDecideCase fails t unless Decide matches the reference on c, and
// returns the decision.
func checkDecideCase(t *testing.T, c decideCase) Decision {
	t.Helper()
	ref := refScheduler{s: c.s}
	want := ref.Decide(c.st)
	got := c.s.Decide(c.st)
	if !sameDecision(got, want) {
		t.Fatalf("Decide = %+v, reference %+v\nslo %+v cfg %+v\nstate %+v", got, want, c.s.slo, c.s.cfg, c.st)
	}
	return got
}

func decideEstimator() *estimator.Estimator {
	return estimator.New(model.Llama31_8B(), gpusim.A100(), estimator.DefaultParams())
}

// TestDecideMatchesReference holds every Decision bit-identical to the
// reference on 100,000 generated snapshots.
func TestDecideMatchesReference(t *testing.T) {
	est := decideEstimator()
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, 2048)
	branches := map[string]int{}
	for i := 0; i < 100000; i++ {
		rng.Read(raw)
		src := byteSrc(raw)
		branches[checkDecideCase(t, genDecideCase(est, &src)).Branch]++
	}
	for _, b := range []string{"idle", "prefill-only", "decode-only", "handover",
		"reduce-decode", "pause-decode", "balance", "reduce-prefill"} {
		if branches[b] == 0 {
			t.Errorf("no generated snapshot took the %s branch: %v", b, branches)
		}
	}
}

// FuzzDecideMatchesReference decodes a scheduler and a snapshot from
// the input and holds the Decision bit-identical to the reference.
func FuzzDecideMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 9, 1, 0, 0, 2, 3, 3, 0, 4, 1, 1, 0, 0, 4, 0, 0, 2, 0, 90})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		raw := make([]byte, 512)
		rng.Read(raw)
		f.Add(raw)
	}
	est := decideEstimator()
	f.Fuzz(func(t *testing.T, raw []byte) {
		src := byteSrc(raw)
		checkDecideCase(t, genDecideCase(est, &src))
	})
}
