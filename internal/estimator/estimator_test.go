package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/units"
)

func testEstimator() *Estimator {
	return New(model.Llama31_8B(), gpusim.A100(), DefaultParams())
}

func TestPrefillLayerTimeSanity(t *testing.T) {
	e := testEstimator()
	// One Llama-8B layer over 2048 tokens is roughly 0.9e12 FLOPs; on a
	// 312 TFLOP/s device that's ~3ms even before inefficiency.
	got := e.PrefillLayerTime(2048, 108, false)
	if got < 1e-3 || got > 20e-3 {
		t.Fatalf("prefill layer time = %v, outside sanity window", got)
	}
	// Full prefill should be ~32x a layer.
	total := e.PrefillTotalTime(2048, 108, false)
	if total < 30*got || total > 40*got {
		t.Fatalf("total %v not ≈ 32 layers of %v", total, got)
	}
}

func TestDecodeStepTimeSanity(t *testing.T) {
	e := testEstimator()
	// Weights alone are ~16 GB; at 2 TB/s a decode step is ≥ 8 ms.
	got := e.DecodeStepTime(32, 1024, 108, false)
	if got < 5e-3 || got > 100e-3 {
		t.Fatalf("decode step time = %v, outside sanity window", got)
	}
	if e.DecodeStepTime(0, 1024, 108, false) != 0 {
		t.Fatal("zero batch should cost nothing")
	}
}

func TestFewerSMsSlower(t *testing.T) {
	e := testEstimator()
	full := e.PrefillLayerTime(4096, 108, false)
	half := e.PrefillLayerTime(4096, 54, false)
	if half <= full {
		t.Fatalf("half-SM time %v not slower than full %v", half, full)
	}
	if half > 2.5*full {
		t.Fatalf("half-SM time %v unreasonably slow vs %v", half, full)
	}
}

func TestColocationContentionSlowsDown(t *testing.T) {
	e := New(model.Llama31_8B(), gpusim.A100(), Params{DC: 1, DB: 1, PC: 0.9, PB: 0.85})
	iso := e.PrefillLayerTime(2048, 54, false)
	co := e.PrefillLayerTime(2048, 54, true)
	if co <= iso {
		t.Fatalf("colocated %v not slower than isolated %v", co, iso)
	}
}

func TestWaveQuantizationVisible(t *testing.T) {
	e := testEstimator()
	// A grid of 128 TBs on 108 SMs leaves 40.7% of SM cycles idle
	// (Table 1, OProj@1024); the prediction must inflate accordingly.
	smooth := e.kernelTime(gpusim.Kernel{FLOPs: 1e12, Grid: 0}, 108, false)
	quantized := e.kernelTime(gpusim.Kernel{FLOPs: 1e12, Grid: 128}, 108, false)
	want := smooth / (128.0 / 216.0)
	if units.Ratio(units.Abs(quantized-want), want) > 1e-9 {
		t.Fatalf("quantized = %v, want %v (smooth %v)", quantized, want, smooth)
	}
}

func TestOnlineCorrection(t *testing.T) {
	e := testEstimator()
	base := e.PrefillLayerTime(2048, 108, false)
	// Device consistently 2x slower than predicted.
	for i := 0; i < 50; i++ {
		pred := e.PrefillLayerTime(2048, 108, false)
		e.ObservePrefill(pred, base*2)
	}
	corrected := e.PrefillLayerTime(2048, 108, false)
	if corrected < base*1.7 || corrected > base*2.3 {
		t.Fatalf("correction converged to %v, want ≈ %v", corrected, base*2)
	}
	pc, dc := e.Corrections()
	if dc != 1 {
		t.Fatalf("decode correction moved: %v", dc)
	}
	if pc < 1.7 || pc > 2.3 {
		t.Fatalf("prefill correction = %v", pc)
	}
	e.ResetCorrections()
	if got := e.PrefillLayerTime(2048, 108, false); units.Ratio(units.Abs(got-base), base) > 1e-9 {
		t.Fatal("reset did not restore base prediction")
	}
}

func TestCorrectionBounded(t *testing.T) {
	e := testEstimator()
	for i := 0; i < 200; i++ {
		pred := e.PrefillLayerTime(2048, 108, false)
		e.ObservePrefill(pred, pred*1000)
	}
	pc, _ := e.Corrections()
	if pc > corrMax+1e-9 {
		t.Fatalf("correction unbounded: %v", pc)
	}
	for i := 0; i < 200; i++ {
		pred := e.DecodeStepTime(8, 512, 108, false)
		e.ObserveDecode(pred, pred/1000)
	}
	_, dcr := e.Corrections()
	if dcr < corrMin-1e-9 {
		t.Fatalf("correction under-bounded: %v", dcr)
	}
}

func TestInvalidParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero params accepted")
		}
	}()
	New(model.Tiny(), gpusim.TestGPU(), Params{})
}

func TestProfileQuick(t *testing.T) {
	cfg := model.Llama31_8B()
	spec := gpusim.A100()
	est, rep := Profile(cfg, spec, QuickProfileOptions(spec))
	if rep.Trials == 0 || len(rep.Samples) != rep.Trials {
		t.Fatalf("trials=%d samples=%d", rep.Trials, len(rep.Samples))
	}
	p := est.Params()
	for _, v := range []float64{p.DC, p.DB, p.PC, p.PB} {
		if v < 0.2 || v > 1.5 {
			t.Fatalf("fitted param out of range: %+v", p)
		}
	}
	// Fitted decay factors must improve on the naive analytical model.
	if rep.MeanRelError > 0.5 {
		t.Fatalf("mean relative error = %v, fit failed", rep.MeanRelError)
	}
	// The fitted model should predict a real configuration reasonably:
	// compare against a fresh ground-truth measurement.
	actual := measurePrefillLayer(cfg, spec, 2048, 0, spec.NumSMs)
	pred := est.PrefillLayerTime(2048, spec.NumSMs, false)
	if units.Ratio(units.Abs(pred-actual), actual) > 0.6 {
		t.Fatalf("pred %v vs actual %v: too far off", pred, actual)
	}
}

func TestProfileReportErrorStats(t *testing.T) {
	spec := gpusim.A100()
	_, rep := Profile(model.Llama31_8B(), spec, QuickProfileOptions(spec))
	if rep.P90RelError < rep.MeanRelError/4 {
		t.Fatalf("p90 %v implausibly below mean %v", rep.P90RelError, rep.MeanRelError)
	}
	acc := ClassificationAccuracy(rep.Samples, 1.0)
	if acc < 0.5 || acc > 1.0001 {
		t.Fatalf("classification accuracy = %v", acc)
	}
}

func TestClassificationAccuracyEdge(t *testing.T) {
	if got := ClassificationAccuracy(nil, 1); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
	perfect := []Sample{
		{Kind: "k", Actual: 1, Predicted: 1},
		{Kind: "k", Actual: 2, Predicted: 2},
		{Kind: "k", Actual: 3, Predicted: 3},
	}
	if got := ClassificationAccuracy(perfect, 1.0); got != 1 {
		t.Fatalf("perfect accuracy = %v", got)
	}
}

func TestMeasureColocatedProducesBothSamples(t *testing.T) {
	cfg := model.Llama31_8B()
	spec := gpusim.A100()
	p, d := measureColocated(cfg, spec, 2048, 32, 1024, 81, 27)
	if p <= 0 || d <= 0 {
		t.Fatalf("colocated measures: prefill=%v decode=%v", p, d)
	}
	// Colocated prefill on 81 SMs should be slower than isolated full-GPU.
	iso := measurePrefillLayer(cfg, spec, 2048, 0, 108)
	if p <= iso {
		t.Fatalf("colocated partial-SM prefill %v not slower than isolated %v", p, iso)
	}
}

// TestPrefillMemoMatchesReference checks the three prefill predictors
// bit for bit against the uncached Eq. 2 sum, corrected in the
// predictors' order, on first calls (misses), on repeats (hits) and
// across table clears; then DecodeStepTime, alternating between decode
// states, against a fresh estimator.
func TestPrefillMemoMatchesReference(t *testing.T) {
	// 28 layers: scaling by a power of two would hide a swapped
	// correction order.
	cfg, spec := model.Qwen2_7B(), gpusim.A100()
	p := Params{DC: 0.8, DB: 0.9, PC: 0.85, PB: 0.7}
	e := New(cfg, spec, p)
	pred := e.PrefillLayerTime(2048, 108, false)
	e.ObservePrefill(pred, units.Scale(pred, 1.7))
	corr, _ := e.Corrections()
	if corr == 1 {
		t.Fatal("ObservePrefill left the correction at 1")
	}
	const layersLeft = 7
	check := func(tokens, sms int, coloc bool, which int) {
		t.Helper()
		raw := predictKernels(spec, p, cfg.PrefillLayerKernels(tokens, 0, ""), sms, coloc)
		head := predictKernels(spec, p, []gpusim.Kernel{cfg.LMHeadKernel(1, "")}, sms, coloc)
		layer := units.Scale(raw, corr)
		want := []units.Seconds{
			layer,
			units.Scale(layer, layersLeft),
			units.Scale(layer, float64(cfg.NumLayers)) + units.Scale(head, corr),
		}
		// Rotate which predictor meets the key first, so each one is
		// checked on misses as well as hits.
		for j := range want {
			k := (which + j) % len(want)
			var got units.Seconds
			switch k {
			case 0:
				got = e.PrefillLayerTime(tokens, sms, coloc)
			case 1:
				got = e.PrefillRemainingTime(tokens, layersLeft, sms, coloc)
			case 2:
				got = e.PrefillTotalTime(tokens, sms, coloc)
			}
			if math.Float64bits(got.Float()) != math.Float64bits(want[k].Float()) {
				t.Fatalf("predictor %d (%d tokens, %d SMs, coloc %v) = %v, want %v", k, tokens, sms, coloc, got, want[k])
			}
		}
	}
	inMemo := func(tokens, sms int, coloc bool) bool {
		key := memoKey(tokens, sms, coloc)
		for _, s := range e.memo {
			if s.key == key {
				return true
			}
		}
		return false
	}

	type key struct {
		tokens, sms int
		coloc       bool
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[key]bool{}
	var keys []key
	for len(keys) < 3*memoSlots/4 { // more than memoLimit: the table clears
		k := key{rng.Intn(32768) + 1, rng.Intn(spec.NumSMs) + 1, rng.Intn(2) == 1}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		if inMemo(k.tokens, k.sms, k.coloc) {
			t.Fatalf("key %+v in the memo before its first call", k)
		}
		check(k.tokens, k.sms, k.coloc, i)
	}
	if e.memoLen >= len(keys) || e.memoLen > memoLimit {
		t.Fatalf("memo holds %d of %d keys: the clear path did not run", e.memoLen, len(keys))
	}
	// Newest first: the keys inserted since the last clear hit, the
	// older ones miss.
	hits, misses := 0, 0
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if inMemo(k.tokens, k.sms, k.coloc) {
			hits++
		} else {
			misses++
		}
		check(k.tokens, k.sms, k.coloc, i+1)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("repeat pass: %d hits, %d misses; want both", hits, misses)
	}
	// Inputs that cannot be packed go around the table.
	check(1<<40, 54, true, 0)
	check(2048, 1<<20, false, 1)
	for _, bad := range []struct {
		tokens, sms int
		msg         string
	}{{0, 54, "0 tokens"}, {-3, 54, "-3 tokens"}, {2048, 0, "0 SMs"}, {2048, -1, "-1 SMs"}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), bad.msg) {
					t.Fatalf("PrefillTotalTime(%d, %d): recovered %v, want a panic naming %q", bad.tokens, bad.sms, r, bad.msg)
				}
			}()
			e.PrefillTotalTime(bad.tokens, bad.sms, true)
		}()
	}

	states := []struct {
		batch int
		ctx   units.Tokens
	}{{32, 1024}, {33, 1024}, {33, 1024.5}}
	for round := 0; round < 6; round++ {
		st := states[round%len(states)]
		for _, sms := range []int{12, 54, 108} {
			coloc := sms < spec.NumSMs
			got := e.DecodeStepTime(st.batch, st.ctx, sms, coloc)
			want := New(cfg, spec, p).DecodeStepTime(st.batch, st.ctx, sms, coloc)
			if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
				t.Fatalf("DecodeStepTime(%d, %v, %d) = %v, fresh estimator %v", st.batch, st.ctx, sms, got, want)
			}
		}
	}
}

// Property: predictions are positive and monotone in tokens.
func TestPropertyPredictionMonotone(t *testing.T) {
	e := testEstimator()
	f := func(aU uint16, smU uint8) bool {
		a := int(aU%8192) + 1
		sms := int(smU%107) + 1
		t1 := e.PrefillLayerTime(a, sms, false)
		t2 := e.PrefillLayerTime(a+512, sms, false)
		return t1 > 0 && t2 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: decode step predictions are monotone in batch size.
func TestPropertyDecodeMonotoneBatch(t *testing.T) {
	e := testEstimator()
	f := func(bU uint8) bool {
		b := int(bU%200) + 1
		t1 := e.DecodeStepTime(b, 1024, 108, false)
		t2 := e.DecodeStepTime(b+8, 1024, 108, false)
		return t1 > 0 && t2 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPredict measures the Table 3 "Performance Predict" path.
func BenchmarkPredict(b *testing.B) {
	e := testEstimator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.PrefillLayerTime(2048, 84, true)
		_ = e.DecodeStepTime(64, 1024, 24, true)
	}
}

func BenchmarkProfileQuick(b *testing.B) {
	spec := gpusim.A100()
	cfg := model.Llama31_8B()
	opts := QuickProfileOptions(spec)
	for i := 0; i < b.N; i++ {
		_, _ = Profile(cfg, spec, opts)
	}
}
