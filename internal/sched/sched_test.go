package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
)

func testScheduler() *Scheduler {
	est := estimator.New(model.Llama31_8B(), gpusim.A100(), estimator.DefaultParams())
	levels := []int{}
	for n := 6; n <= 108; n += 6 {
		levels = append(levels, n)
	}
	return New(est, metrics.SLOFor("azure-code"), Config{
		TotalLayers: 32,
		LayerGroup:  1,
		NumSMs:      108,
		Levels:      levels,
	})
}

// slackState: small prefill just started, tiny decode batch with healthy
// TPOT history — everything deep within SLO.
func slackState() State {
	return State{
		Now: 10,
		Prefill: PrefillStatus{
			Active: true, Tokens: 2048, LayersDone: 0, StartTime: 10,
			Arrivals: []sim.Time{9.99}, InputTokens: []int{2048},
		},
		Decode: DecodeStatus{
			Batch: 8, AvgCtx: 512,
			Elapsed:   []units.Seconds{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
			Generated: []int{10, 10, 10, 10, 10, 10, 10, 10},
		},
		PrefillSMs: 54, DecodeSMs: 54,
	}
}

func TestIdleDecision(t *testing.T) {
	s := testScheduler()
	d := s.Decide(State{Now: 1})
	if d.Branch != "idle" || d.PrefillSMs != 108 || d.DecodeSMs != 108 {
		t.Fatalf("idle decision = %+v", d)
	}
}

func TestPrefillOnlyGetsFullGPU(t *testing.T) {
	s := testScheduler()
	st := slackState()
	st.Decode = DecodeStatus{}
	d := s.Decide(st)
	if d.Branch != "prefill-only" || d.PrefillSMs != 108 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestDecodeOnlyGetsFullGPU(t *testing.T) {
	s := testScheduler()
	st := slackState()
	st.Prefill = PrefillStatus{}
	d := s.Decide(st)
	if d.Branch != "decode-only" || d.DecodeSMs != 108 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestSlackReducesDecodeSM(t *testing.T) {
	s := testScheduler()
	d := s.Decide(slackState())
	if d.Branch != "reduce-decode" {
		t.Fatalf("branch = %s, want reduce-decode (%+v)", d.Branch, d)
	}
	if d.PauseDecode {
		t.Fatal("paused decode despite slack")
	}
	// With this much slack decode should end up at a small allocation
	// and prefill should get most of the GPU.
	if d.DecodeSMs > 54 {
		t.Fatalf("decode SMs = %d, expected a small allocation", d.DecodeSMs)
	}
	if d.PrefillSMs < 54 {
		t.Fatalf("prefill SMs = %d, expected the majority", d.PrefillSMs)
	}
	if d.PredTPOTMs > s.slo.TPOTMs {
		t.Fatalf("chosen decode allocation predicted to violate TPOT: %+v", d)
	}
}

func TestTPOTViolationReducesPrefillSM(t *testing.T) {
	s := testScheduler()
	st := slackState()
	// Decode requests already behind on TPOT: elapsed 0.5s for 1 token
	// (next token would put TPOT near 250ms > 200ms target) while TTFT
	// is fine.
	st.Decode = DecodeStatus{
		Batch: 64, AvgCtx: 2048,
		Elapsed:   repeatF(0.5, 64),
		Generated: repeatI(1, 64),
	}
	d := s.Decide(st)
	if d.Branch != "reduce-prefill" {
		t.Fatalf("branch = %s (%+v)", d.Branch, d)
	}
	if d.DecodeSMs < st.DecodeSMs {
		t.Fatalf("decode SMs shrank on a TPOT violation: %+v", d)
	}
}

func TestTTFTViolationPausesDecodeWhenTPOTHasSlack(t *testing.T) {
	s := testScheduler()
	st := slackState()
	// Request has waited 2s already with a 512-token input: hopeless
	// TTFT (target 1.5 ms/token ⇒ 0.77s budget) unless prefill gets
	// everything.
	st.Prefill.Arrivals = []sim.Time{8.0}
	st.Prefill.InputTokens = []int{512}
	st.Prefill.Tokens = 512
	d := s.Decide(st)
	if d.Branch != "pause-decode" || !d.PauseDecode {
		t.Fatalf("branch = %s, want pause-decode (%+v)", d.Branch, d)
	}
	if d.PrefillSMs != 108 {
		t.Fatalf("paused decision should give prefill the whole GPU: %+v", d)
	}
}

func TestQueuePressureWithoutActivePrefill(t *testing.T) {
	// Regression: decode running, no prefill batch active, but a deep
	// waiting queue with hopeless TTFT. The pause sizing must come from
	// the queue head rather than the (empty) running batch.
	s := testScheduler()
	st := slackState()
	st.Prefill = PrefillStatus{}
	for i := 0; i < 5; i++ {
		st.Waiting = append(st.Waiting, WaitingReq{Arrival: 5, InputTokens: 512})
	}
	d := s.Decide(st) // must not panic
	if d.PrefillSMs <= 0 || d.DecodeSMs <= 0 {
		t.Fatalf("bad decision %+v", d)
	}
}

func TestBothViolatedBalances(t *testing.T) {
	s := testScheduler()
	st := slackState()
	st.Prefill.Arrivals = []sim.Time{7.0}
	st.Prefill.InputTokens = []int{512}
	st.Prefill.Tokens = 512
	st.Decode = DecodeStatus{
		Batch: 64, AvgCtx: 2048,
		Elapsed:   repeatF(0.6, 64),
		Generated: repeatI(1, 64),
	}
	d := s.Decide(st)
	if d.Branch != "balance" {
		t.Fatalf("branch = %s (%+v)", d.Branch, d)
	}
	if d.PrefillSMs+d.DecodeSMs > 108 {
		t.Fatalf("balanced split oversubscribes: %+v", d)
	}
}

func TestHandoverSharesSMs(t *testing.T) {
	s := testScheduler()
	st := slackState()
	st.Prefill.LayersDone = 31 // one layer left: tiny remaining time
	st.Decode = DecodeStatus{
		Batch: 64, AvgCtx: 2048,
		Elapsed:   repeatF(0.1, 64),
		Generated: repeatI(10, 64),
	}
	d := s.Decide(st)
	if d.Branch != "handover" {
		t.Fatalf("branch = %s (%+v)", d.Branch, d)
	}
	if d.DecodeSMs != 108 {
		t.Fatalf("handover should hand decode the full device: %+v", d)
	}
}

func TestWaitingQueueInflatesTTFT(t *testing.T) {
	s := testScheduler()
	st := slackState()
	base := s.normTTFT(&st, 54, true)
	for i := 0; i < 10; i++ {
		st.Waiting = append(st.Waiting, WaitingReq{Arrival: 9.9, InputTokens: 4096})
	}
	loaded := s.normTTFT(&st, 54, true)
	if loaded <= base {
		t.Fatalf("queued requests did not raise predicted TTFT: %v vs %v", loaded, base)
	}
}

func TestComplement(t *testing.T) {
	s := testScheduler()
	if got := s.complement(54); got != 54 {
		t.Fatalf("complement(54) = %d", got)
	}
	if got := s.complement(108); got != 6 {
		t.Fatalf("complement(108) = %d (clamped to smallest level)", got)
	}
	if got := s.complement(6); got != 102 {
		t.Fatalf("complement(6) = %d", got)
	}
}

func TestNewValidation(t *testing.T) {
	est := estimator.New(model.Tiny(), gpusim.TestGPU(), estimator.DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("empty levels accepted")
		}
	}()
	New(est, metrics.SLOFor("sharegpt"), Config{TotalLayers: 2, NumSMs: 8})
}

// Property: decisions always produce allocations from the level set (or
// the full device) and never exceed the device on strictly-partitioned
// branches.
func TestPropertyDecisionValid(t *testing.T) {
	s := testScheduler()
	valid := map[int]bool{108: true}
	for _, l := range s.cfg.Levels {
		valid[l] = true
	}
	f := func(tokU uint16, batchU, genU uint8, elapsedU uint16, waitU uint8) bool {
		st := State{
			Now: 100,
			Prefill: PrefillStatus{
				Active: true, Tokens: int(tokU%16000) + 64,
				LayersDone: int(genU % 32), StartTime: 99,
				Arrivals:    []sim.Time{sim.Time(99 - float64(elapsedU%200)/100)},
				InputTokens: []int{int(tokU%16000) + 64},
			},
			Decode: DecodeStatus{
				Batch:  int(batchU%128) + 1,
				AvgCtx: 1024,
			},
			PrefillSMs: 54, DecodeSMs: 54,
		}
		for i := 0; i < st.Decode.Batch; i++ {
			st.Decode.Elapsed = append(st.Decode.Elapsed, units.Seconds(elapsedU)/1000)
			st.Decode.Generated = append(st.Decode.Generated, int(genU)+1)
		}
		for i := 0; i < int(waitU%10); i++ {
			st.Waiting = append(st.Waiting, WaitingReq{Arrival: 99.5, InputTokens: 1024})
		}
		d := s.Decide(st)
		if !valid[d.PrefillSMs] || !valid[d.DecodeSMs] {
			return false
		}
		if d.PauseDecode && d.Branch != "pause-decode" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func repeatF(v units.Seconds, n int) []units.Seconds {
	out := make([]units.Seconds, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func repeatI(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// BenchmarkDecide measures the scheduling decision cost (part of the
// Table 3 CPU overhead story).
func BenchmarkDecide(b *testing.B) {
	s := testScheduler()
	st := slackState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Decide(st)
	}
}

func TestReducePrefillFallbackWhenNothingFeasible(t *testing.T) {
	// TPOT hopeless at every split: the scheduler must still return a
	// valid partition (minimum prefill, rest to decode).
	s := testScheduler()
	st := slackState()
	st.Decode = DecodeStatus{
		Batch: 256, AvgCtx: 4096,
		Elapsed:   repeatF(10, 256), // absurdly behind
		Generated: repeatI(1, 256),
	}
	st.Prefill.Arrivals = []sim.Time{9.99}
	st.Prefill.InputTokens = []int{2048}
	d := s.Decide(st)
	if d.PrefillSMs <= 0 || d.DecodeSMs <= 0 {
		t.Fatalf("invalid decision %+v", d)
	}
	if d.PrefillSMs+d.DecodeSMs > 108 {
		t.Fatalf("oversubscribed fallback %+v", d)
	}
}

func TestLevelAtLeast(t *testing.T) {
	s := testScheduler()
	if got := s.levelAtLeast(1); got != 6 {
		t.Fatalf("levelAtLeast(1) = %d", got)
	}
	if got := s.levelAtLeast(7); got != 12 {
		t.Fatalf("levelAtLeast(7) = %d", got)
	}
	if got := s.levelAtLeast(1000); got != 108 {
		t.Fatalf("levelAtLeast(1000) = %d", got)
	}
}

func TestDeadline(t *testing.T) {
	w := WaitingReq{Arrival: 2, InputTokens: 1000}
	slo := metrics.SLO{NormTTFTMs: 1.5, TPOTMs: 100}
	if got := w.Deadline(slo); got != 3.5 {
		t.Fatalf("deadline = %v, want 3.5", got)
	}
}

func TestZeroAllocationSnapshotSanitized(t *testing.T) {
	// Snapshots before the first SetAllocation carry zeros; Decide must
	// treat them as full-device.
	s := testScheduler()
	st := slackState()
	st.PrefillSMs, st.DecodeSMs = 0, 0
	d := s.Decide(st) // must not panic
	if d.PrefillSMs <= 0 || d.DecodeSMs <= 0 {
		t.Fatalf("bad decision %+v", d)
	}
}

func TestSetCapacityShrinksDecisions(t *testing.T) {
	s := testScheduler()
	levels := []int{}
	for n := 6; n <= 96; n += 6 {
		levels = append(levels, n)
	}
	s.SetCapacity(96, levels)
	if s.Capacity() != 96 {
		t.Fatalf("Capacity = %d, want 96", s.Capacity())
	}
	// Idle and single-phase decisions now top out at the shrunken budget.
	if d := s.Decide(State{Now: 1}); d.PrefillSMs != 96 || d.DecodeSMs != 96 {
		t.Fatalf("idle decision after shrink = %+v", d)
	}
	st := slackState()
	st.Decode = DecodeStatus{}
	if d := s.Decide(st); d.PrefillSMs != 96 {
		t.Fatalf("prefill-only after shrink = %+v", d)
	}
	// Co-running decisions never exceed the new budget either.
	d := s.Decide(slackState())
	if d.PrefillSMs > 96 || d.DecodeSMs > 96 {
		t.Fatalf("co-run decision exceeds capacity: %+v", d)
	}
}

func TestSetCapacityClampsAdmissionMinimums(t *testing.T) {
	est := estimator.New(model.Llama31_8B(), gpusim.A100(), estimator.DefaultParams())
	s := New(est, metrics.SLOFor("azure-code"), Config{
		TotalLayers:   32,
		NumSMs:        108,
		Levels:        []int{12, 24, 36, 48, 60, 72, 84, 96, 108},
		MinPrefillSMs: 24,
		MinDecodeSMs:  24,
	})
	// Shrink below the configured minimums: they must clamp to the new
	// smallest level so a feasible split still exists.
	s.SetCapacity(18, []int{6, 12, 18})
	if s.cfg.MinPrefillSMs != 6 || s.cfg.MinDecodeSMs != 6 {
		t.Fatalf("minimums after shrink = %d/%d, want 6/6",
			s.cfg.MinPrefillSMs, s.cfg.MinDecodeSMs)
	}
	d := s.Decide(slackState())
	if d.PrefillSMs > 18 || d.DecodeSMs > 18 {
		t.Fatalf("decision exceeds 18-SM capacity: %+v", d)
	}
}

func TestSetCapacityValidation(t *testing.T) {
	cases := []struct {
		name   string
		numSMs int
		levels []int
	}{
		{"zero SMs", 0, []int{6}},
		{"no levels", 54, nil},
		{"unsorted levels", 54, []int{12, 6}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetCapacity(%d, %v) accepted", c.name, c.numSMs, c.levels)
				}
			}()
			testScheduler().SetCapacity(c.numSMs, c.levels)
		}()
	}
}
