package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Figure15Result evaluates the performance estimator (§4.5.2): offline
// fit quality plus online prediction accuracy collected from a real
// serving run, including the SLO-compliance classification accuracy.
type Figure15Result struct {
	// Offline profiling fit.
	Params          estimator.Params
	OfflineTrials   int
	OfflineMeanRel  float64
	OfflineP90Rel   float64
	OfflineAccuracy float64

	// Online (serving-run) prediction pairs.
	OnlinePairs    int
	OnlineMeanRel  float64
	OnlineP50Rel   float64
	OnlineP90Rel   float64
	OnlineAccuracy float64 // SLO-compliance classification on step durations
}

// Figure15 fits the estimator offline and then serves a mixed workload,
// reading the estimator's every (prediction, observation) pair off the
// engines' timeline.
func Figure15(n int, seed int64) Figure15Result {
	spec, cfg := Platform()
	_, rep := estimator.Profile(cfg, spec, estimator.QuickProfileOptions(spec))

	out := Figure15Result{
		Params:          rep.Params,
		OfflineTrials:   rep.Trials,
		OfflineMeanRel:  rep.MeanRelError,
		OfflineP90Rel:   rep.P90RelError,
		OfflineAccuracy: estimator.ClassificationAccuracy(rep.Samples, 1.0),
	}

	// Online validation on the Azure-Code workload.
	env := serving.NewEnv(spec, cfg, "azure-code")
	b := core.New(env, core.Options{Mode: core.ModeFull, Params: rep.Params})
	rec := timeline.New(0)
	b.Prefill.TL, b.Decode.TL = rec, rec // the estimator feedback, as in Figure12
	b.RunTrace(workload.Generate(workload.AzureCode, 4.5, n, seed))

	samples, rels, mean := relErrors(SeriesFromTimeline(rec).Observations)
	if len(rels) == 0 {
		return out
	}
	out.OnlinePairs = len(rels)
	out.OnlineMeanRel = mean
	out.OnlineP50Rel = rels[len(rels)/2]
	out.OnlineP90Rel = rels[(len(rels)*9)/10]
	out.OnlineAccuracy = estimator.ClassificationAccuracy(samples, 1.0)
	return out
}

// relErrors keeps the (prediction, observation) pairs whose values are
// both positive and returns them, their relative errors sorted
// ascending, and the mean error, summed in that sorted order (0 when no
// pair is kept).
func relErrors(pairs []estimator.Sample) (kept []estimator.Sample, rels []float64, mean float64) {
	for _, p := range pairs {
		if p.Predicted > 0 && p.Actual > 0 {
			kept = append(kept, p)
			rels = append(rels, p.RelError())
		}
	}
	if len(rels) == 0 {
		return kept, rels, 0
	}
	sort.Float64s(rels)
	for _, r := range rels {
		mean += r
	}
	return kept, rels, mean / float64(len(rels))
}

// RenderFigure15 prints the accuracy summary.
func RenderFigure15(r Figure15Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 15: performance estimator accuracy\n")
	fmt.Fprintf(&sb, "fitted params: dc=%.3f db=%.3f pc=%.3f pb=%.3f (from %d offline trials)\n",
		r.Params.DC, r.Params.DB, r.Params.PC, r.Params.PB, r.OfflineTrials)
	fmt.Fprintf(&sb, "offline: mean rel err %.1f%%, p90 %.1f%%, SLO classification accuracy %.0f%%\n",
		100*r.OfflineMeanRel, 100*r.OfflineP90Rel, 100*r.OfflineAccuracy)
	fmt.Fprintf(&sb, "online (%d serving predictions): mean rel err %.1f%%, p50 %.1f%%, p90 %.1f%%, classification accuracy %.0f%%\n",
		r.OnlinePairs, 100*r.OnlineMeanRel, 100*r.OnlineP50Rel, 100*r.OnlineP90Rel, 100*r.OnlineAccuracy)
	return sb.String()
}
