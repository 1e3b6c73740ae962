package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestTable1MatchesPaperExactColumns(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// QKV/Attn/OProj columns are exactly reproducible from the grid
	// model (Table 1 of the paper).
	want := []struct {
		seq              int
		qkv, attn, oproj float64
	}{
		{1024, 11.1, 21.0, 40.7},
		{2048, 11.1, 5.2, 21.0},
		{4096, 11.1, 5.2, 5.2},
		{16384, 1.9, 0.2, 0.2},
	}
	for i, w := range want {
		r := rows[i]
		if r.SeqLen != w.seq {
			t.Fatalf("row %d seq = %d", i, r.SeqLen)
		}
		if math.Abs(r.QKV-w.qkv) > 0.15 || math.Abs(r.Attn-w.attn) > 0.15 || math.Abs(r.OProj-w.oproj) > 0.15 {
			t.Errorf("seq %d: got qkv=%.1f attn=%.1f oproj=%.1f, want %.1f/%.1f/%.1f",
				w.seq, r.QKV, r.Attn, r.OProj, w.qkv, w.attn, w.oproj)
		}
	}
	// Idle ratios shrink with sequence length (total column shape).
	if !(rows[0].Total > rows[1].Total && rows[1].Total >= rows[2].Total && rows[2].Total > rows[3].Total) {
		t.Errorf("total idle not decreasing: %+v", rows)
	}
	if out := RenderTable1(rows); !strings.Contains(out, "16384") {
		t.Error("render missing rows")
	}
}

func TestFigure2Shapes(t *testing.T) {
	rows, sums := Figure2()
	if len(sums) != 4 {
		t.Fatalf("summaries = %d", len(sums))
	}
	// Aggregate compute utilization stays below the MLP peak (~0.92)
	// for every length: the paper's headline that whole layers sustain
	// only 70-76%.
	for _, s := range sums {
		if s.ComputeUtil >= 0.92 {
			t.Errorf("seq %d aggregate util %.2f not below peak-sustainable", s.SeqLen, s.ComputeUtil)
		}
		if s.ComputeUtil < 0.4 {
			t.Errorf("seq %d aggregate util %.2f implausibly low", s.SeqLen, s.ComputeUtil)
		}
	}
	// MLP is the most compute-efficient operator; attention's share of
	// time grows with length.
	attnShare := map[int]float64{}
	for _, r := range rows {
		if r.Op == "attn" {
			attnShare[r.SeqLen] = r.TimeFrac
		}
		if r.Op == "mlp" && r.ComputeUtil < 0.6 {
			t.Errorf("mlp util %.2f at seq %d too low", r.ComputeUtil, r.SeqLen)
		}
	}
	if attnShare[16384] <= attnShare[1024] {
		t.Errorf("attention share not growing: %v", attnShare)
	}
	// At 16k attention should dominate a large share (~34% in paper).
	if attnShare[16384] < 0.2 {
		t.Errorf("attention share at 16k = %.2f, want ≳0.2", attnShare[16384])
	}
	_ = RenderFigure2(rows, sums)
}

func TestFigure4Shapes(t *testing.T) {
	r := Figure4()
	// Chunked total latency exceeds unchunked for both chunk sizes, and
	// more so for the smaller chunk (paper: 1.13x at 1k).
	if r.TotalLatency[1024] <= r.Unchunked || r.TotalLatency[2048] <= r.Unchunked {
		t.Fatalf("chunking did not add latency: %+v", r.TotalLatency)
	}
	if r.TotalLatency[1024] <= r.TotalLatency[2048] {
		t.Errorf("smaller chunks should cost more total: %v vs %v",
			r.TotalLatency[1024], r.TotalLatency[2048])
	}
	// Per-chunk latency grows across the sequence (final ≈1.9x first in
	// the paper for cs=1024).
	var first, last Figure4Chunk
	for _, c := range r.Chunks {
		if c.ChunkSize != 1024 {
			continue
		}
		if c.Index == 0 {
			first = c
		}
		if c.Index == 15 {
			last = c
		}
	}
	growth := last.Latency / first.Latency
	if growth < 1.3 {
		t.Errorf("final/first chunk latency = %.2fx, want ≥1.3x", growth)
	}
	// Utilization of later chunks degrades below the first chunk's.
	if last.Util >= first.Util {
		t.Errorf("utilization did not degrade: first %.2f last %.2f", first.Util, last.Util)
	}
	_ = RenderFigure4(r)
}

func TestFigure7Shapes(t *testing.T) {
	rows := Figure7()
	// Decode scales super-linearly: speedup/frac > 1 at small
	// fractions. Prefill scales ~linearly: ratio ≈ 1 or below... the
	// tail-wave can make partial allocations relatively better, so
	// allow a small margin.
	for _, r := range rows {
		if r.SMs == 108 {
			if math.Abs(r.Speedup-1) > 1e-9 {
				t.Errorf("full-GPU speedup != 1: %+v", r)
			}
			continue
		}
		if r.Phase == "decode" && r.SMs <= 36 {
			if r.Speedup/r.SMFrac < 1.2 {
				t.Errorf("decode not super-linear at %d SMs: %+v", r.SMs, r)
			}
		}
		if r.Phase == "prefill" && r.Param == 16384 {
			if r.Speedup/r.SMFrac > 1.25 {
				t.Errorf("long prefill scaling too super-linear: %+v", r)
			}
		}
	}
	_ = RenderFigure7(rows)
}

func TestFigure10Shapes(t *testing.T) {
	rows := Figure10(2000, 7)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	med := map[string]int{}
	for _, r := range rows {
		// Quantiles monotone.
		for i := 1; i < len(r.Quantiles); i++ {
			if r.Quantiles[i] < r.Quantiles[i-1] {
				t.Fatalf("non-monotone quantiles: %+v", r)
			}
		}
		med[r.Dataset+"/"+r.Kind] = r.Quantiles[2]
	}
	if !(med["arxiv-summary/input"] > med["azure-code/input"] && med["azure-code/input"] > med["sharegpt/input"]) {
		t.Errorf("input medians out of order: %v", med)
	}
	if med["azure-code/output"] >= med["sharegpt/output"] {
		t.Errorf("azure outputs should be shortest: %v", med)
	}
	_ = RenderFigure10(rows)
}

func TestFigure11QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e sweep")
	}
	rows := Figure11(QuickE2EConfig())
	avg, max, per := Figure11Headline(rows)
	// Bullet must show a positive average throughput gain, with the
	// magnitude in the paper's ballpark (1.26x avg, 1.55x max).
	if avg < 1.02 {
		t.Fatalf("avg throughput gain %.3fx: Bullet does not win", avg)
	}
	if max < avg {
		t.Fatalf("max %.2f < avg %.2f", max, avg)
	}
	// Bullet beats every chunked baseline on SLO attainment per point
	// at these near-saturation rates.
	byKey := map[string]Figure11Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.System] = r
	}
	for _, ds := range []string{"azure-code", "arxiv-summary"} {
		b := byKey[ds+"/bullet"]
		for _, sys := range []string{"vllm-1024", "sglang-1024", "sglang-2048"} {
			o := byKey[ds+"/"+sys]
			if b.SLOAttainment < o.SLOAttainment {
				t.Errorf("%s: bullet SLO %.2f below %s %.2f", ds, b.SLOAttainment, sys, o.SLOAttainment)
			}
			if b.MeanTTFT > o.MeanTTFT {
				t.Errorf("%s: bullet TTFT %.3f above %s %.3f", ds, b.MeanTTFT, sys, o.MeanTTFT)
			}
		}
	}
	_ = per
	_ = RenderFigure11(rows)
}

func TestFigure12Shapes(t *testing.T) {
	r := Figure12(3.5, 60, 11, 40)
	if len(r.SampleTimes) != 40 {
		t.Fatalf("samples = %d", len(r.SampleTimes))
	}
	// Bullet's prefill SM allocation must vary over the bursty trace.
	minSM, maxSM := math.Inf(1), math.Inf(-1)
	for _, v := range r.PrefillSMs {
		if v == 0 {
			continue
		}
		minSM = math.Min(minSM, v)
		maxSM = math.Max(maxSM, v)
	}
	if maxSM-minSM < 6 {
		t.Errorf("prefill SMs barely moved: [%v, %v]", minSM, maxSM)
	}
	// Budget occupancy: chunk + decode tokens ≤ 2048 at all samples.
	for i := range r.HybridChunkTokens {
		if r.HybridChunkTokens[i]+r.HybridDecodeTokens[i] > 2048 {
			t.Errorf("hybrid budget exceeded at sample %d", i)
		}
	}
	// SGLang queueing should exceed Bullet's (paper: 4.17x).
	if r.SGLangQueueMean < r.BulletQueueMean {
		t.Errorf("sglang queue %.3f not above bullet %.3f", r.SGLangQueueMean, r.BulletQueueMean)
	}
	_ = RenderFigure12(r)
}

func TestFigure13Shapes(t *testing.T) {
	rows := Figure13(workload.AzureCode, 5, 100, 21)
	byCfg := map[string]Figure13Row{}
	for _, r := range rows {
		byCfg[r.Config] = r
	}
	dyn := byCfg["bullet"]
	// Dynamic must be at least as good as every fixed point on SLO
	// attainment (the Fig. 13 conclusion: no optimal fixed allocation).
	for _, cfg := range []string{"bullet-sm60", "bullet-sm84", "bullet-sm108"} {
		if dyn.SLOAttainment < byCfg[cfg].SLOAttainment-0.02 {
			t.Errorf("dynamic SLO %.2f below %s %.2f", dyn.SLOAttainment, cfg, byCfg[cfg].SLOAttainment)
		}
	}
	// Fixed points trade off: fewer prefill SMs → worse TTFT.
	if byCfg["bullet-sm60"].MeanTTFT <= byCfg["bullet-sm108"].MeanTTFT {
		t.Errorf("sm60 TTFT %.3f not above sm108 %.3f",
			byCfg["bullet-sm60"].MeanTTFT, byCfg["bullet-sm108"].MeanTTFT)
	}
	_ = RenderFigure13(rows)
}

func TestFigure14Shapes(t *testing.T) {
	rows := Figure14(map[string]float64{"azure-code": 5}, 100, 31)
	byVar := map[string]Figure14Row{}
	for _, r := range rows {
		byVar[r.Variant] = r
	}
	full := byVar["bullet"]
	naive := byVar["bullet-naive"]
	// The full system must beat Naive on SLO attainment.
	if full.SLOAttainment < naive.SLOAttainment {
		t.Errorf("full SLO %.2f below naive %.2f", full.SLOAttainment, naive.SLOAttainment)
	}
	// Every variant must complete; every row populated.
	for _, v := range []string{"bullet-naive", "bullet-partition", "bullet-scheduler", "bullet"} {
		if _, ok := byVar[v]; !ok {
			t.Fatalf("missing variant %s", v)
		}
	}
	_ = RenderFigure14(rows)
}

func TestFigure15Shapes(t *testing.T) {
	r := Figure15(60, 3)
	if r.OnlinePairs < 100 {
		t.Fatalf("too few online pairs: %d", r.OnlinePairs)
	}
	// The paper reports ~19% mean relative error and ~88% SLO
	// classification accuracy; require the same regime.
	if r.OnlineMeanRel > 0.5 {
		t.Errorf("online mean rel err %.2f too large", r.OnlineMeanRel)
	}
	if r.OnlineAccuracy < 0.7 {
		t.Errorf("online classification accuracy %.2f too low", r.OnlineAccuracy)
	}
	if r.OfflineAccuracy < 0.7 {
		t.Errorf("offline classification accuracy %.2f too low", r.OfflineAccuracy)
	}
	_ = RenderFigure15(r)
}

func TestTable3Overheads(t *testing.T) {
	// A synthetic timer keeps this test (and the rendered table) exactly
	// reproducible: every measured section reads the timer twice, so each
	// duration is a fixed 1 us.
	rows := Table3(500, nil)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanUs <= 0 {
			t.Errorf("%s mean = %v", r.Component, r.MeanUs)
		}
		// All control-plane paths must be well under a millisecond.
		if r.MeanUs > 1000 {
			t.Errorf("%s mean %v us too slow", r.Component, r.MeanUs)
		}
	}
	_ = RenderTable3(rows)
}

// TestTable3SnapshotZeroAlloc pins the buffer behind Table 3's
// "Metadata Snapshot" row at zero allocations, as the engines' own
// snapshots are: the row times the snapshot the engines take, not
// allocations they no longer make.
func TestTable3SnapshotZeroAlloc(t *testing.T) {
	buf := table3Buffer(sim.New())
	if got := testing.AllocsPerRun(100, func() { _ = buf.Snapshot() }); got != 0 {
		t.Fatalf("metadata snapshot: %v allocs/op, want 0", got)
	}
}

func TestNewSystemUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown system accepted")
		}
	}()
	RunOne("no-such-system", workload.ShareGPT, 1, 1, 1)
}

func TestRenderTableAlignment(t *testing.T) {
	out := table([]string{"a", "bbb"}, [][]string{{"xxxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) == 0 || len(lines[1]) < len(lines[0])-2 {
		t.Fatalf("bad table:\n%s", out)
	}
}
