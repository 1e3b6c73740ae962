package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines/chunked"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// Figure12Result is the timeline view of §4.3.1: Bullet's dynamic SM
// provisioning, in-flight tokens/batch and pending queue over time, next
// to SGLang-2048's hybrid-batch budget occupancy, on the Azure-Code
// workload.
type Figure12Result struct {
	// Sampled at SampleTimes (unit-typed seconds).
	SampleTimes   []units.Seconds
	PrefillSMs    []float64
	DecodeSMs     []float64
	PrefillTokens []float64
	DecodeBatch   []float64
	Waiting       []float64

	// SGLang-2048 comparison.
	HybridDecodeTokens []float64
	HybridChunkTokens  []float64
	HybridWaiting      []float64

	BulletQueueMean float64
	SGLangQueueMean float64

	BulletSummary metrics.Summary
	SGLangSummary metrics.Summary
}

// Figure12 runs both systems, each traced, on the same bursty
// Azure-Code trace and samples their recorded state on a uniform grid.
func Figure12(rate float64, n int, seed int64, samples int) Figure12Result {
	spec, cfg := Platform()
	d := workload.AzureCode
	trace := workload.GenerateBursty(d, rate, 3, 8, n, seed)

	// Only the engines record: the series read nothing else, and kernel
	// spans would multiply the run's memory about twentyfold.
	envB := serving.NewEnv(spec, cfg, d.Name)
	b := core.New(envB, core.Options{Mode: core.ModeFull})
	recB := timeline.New(0)
	b.Prefill.TL, b.Decode.TL = recB, recB
	resB := envB.Run(b, trace)

	envS := serving.NewEnv(spec, cfg, d.Name)
	sg := chunked.New(envS, chunked.SGLang2048())
	sg.TL = timeline.New(0)
	resS := envS.Run(sg, trace)

	horizon := resB.Makespan
	if resS.Makespan > horizon {
		horizon = resS.Makespan
	}
	out := Figure12Result{
		BulletSummary: resB.Summary,
		SGLangSummary: resS.Summary,
	}
	for i := 0; i < samples; i++ {
		out.SampleTimes = append(out.SampleTimes, units.Over(units.Scale(horizon, float64(i)), float64(samples-1)))
	}
	tl, hy := SeriesFromTimeline(recB), SeriesFromTimeline(sg.TL)
	out.PrefillSMs = tl.PrefillSMs.Resample(0, horizon, samples)
	out.DecodeSMs = tl.DecodeSMs.Resample(0, horizon, samples)
	out.PrefillTokens = tl.PrefillTokens.Resample(0, horizon, samples)
	out.DecodeBatch = tl.DecodeBatch.Resample(0, horizon, samples)
	out.Waiting = tl.Waiting.Resample(0, horizon, samples)
	out.HybridDecodeTokens = hy.DecodeBatch.Resample(0, horizon, samples)
	out.HybridChunkTokens = hy.PrefillTokens.Resample(0, horizon, samples)
	out.HybridWaiting = hy.Waiting.Resample(0, horizon, samples)
	out.BulletQueueMean = resB.Summary.MeanQueue.Float()
	out.SGLangQueueMean = resS.Summary.MeanQueue.Float()
	return out
}

// RenderFigure12 prints the two timelines and the queueing comparison.
func RenderFigure12(r Figure12Result) string {
	header := []string{"t(s)", "pSMs", "dSMs", "pTokens", "dBatch", "waiting", "sg-dec", "sg-chunk", "sg-wait"}
	var cells [][]string
	for i, t := range r.SampleTimes {
		cells = append(cells, []string{
			f1(t.Float()), f1(r.PrefillSMs[i]), f1(r.DecodeSMs[i]), f1(r.PrefillTokens[i]),
			f1(r.DecodeBatch[i]), f1(r.Waiting[i]),
			f1(r.HybridDecodeTokens[i]), f1(r.HybridChunkTokens[i]), f1(r.HybridWaiting[i]),
		})
	}
	var sb strings.Builder
	sb.WriteString("Figure 12: serving status timeline, Azure-Code (Bullet vs SGLang-2048)\n")
	sb.WriteString(table(header, cells))
	ratio := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return b / a
	}
	fmt.Fprintf(&sb, "\nQueue delay: bullet %.3fs, sglang-2048 %.3fs (%.2fx longer)\n",
		r.BulletQueueMean, r.SGLangQueueMean, ratio(r.BulletQueueMean, r.SGLangQueueMean))
	fmt.Fprintf(&sb, "TTFT: bullet %.3fs vs sglang-2048 %.3fs (%.2fx); TPOT %.1fms vs %.1fms (%.2fx)\n",
		r.BulletSummary.MeanTTFT, r.SGLangSummary.MeanTTFT,
		ratio(r.BulletSummary.MeanTTFT.Float(), r.SGLangSummary.MeanTTFT.Float()),
		r.BulletSummary.MeanTPOTMs, r.SGLangSummary.MeanTPOTMs,
		ratio(r.BulletSummary.MeanTPOTMs, r.SGLangSummary.MeanTPOTMs))
	return sb.String()
}
