package experiments

import (
	"fmt"

	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// RunOneTraced executes a single serving experiment with the timeline
// recorder attached, returning both the result and the recorded trace.
func RunOneTraced(system string, dataset workload.Dataset, rate float64, n int, seed int64) (serving.Result, *timeline.Recorder) {
	d := MustBuild(Spec{System: system, Dataset: dataset})
	rec := timeline.New(0)
	d.AttachTimeline(rec)
	return d.Run(workload.Generate(dataset, rate, n, seed)), rec
}

// TimelineSeries is the Fig. 12 view of one traced single-GPU run: step
// series of its serving state (a chunked baseline's decode and chunk
// tokens fill DecodeBatch and PrefillTokens) and its Algorithm-1 arms,
// plus the Fig. 15 view: every (prediction, observation) pair the
// engines fed back to the estimator, Kind "prefill" or "decode".
type TimelineSeries struct {
	PrefillSMs, DecodeSMs, PrefillTokens, DecodeBatch, Waiting metrics.Series
	Branches                                                   []string
	Observations                                               []estimator.Sample
}

// SeriesFromTimeline folds a recorder's events into step series. The
// events it reads are stamped when they happen, so the recorder's
// (time, seq) order is their emission order. It panics if the recorder
// dropped events or an event lacks an argument it reads.
func SeriesFromTimeline(rec *timeline.Recorder) TimelineSeries {
	if n := rec.Dropped(); n > 0 {
		panic(fmt.Sprintf("experiments: timeline dropped %d events; its series would be truncated", n))
	}
	var s TimelineSeries
	for _, e := range rec.Events() {
		arg := func(key string) float64 {
			for _, a := range e.Args {
				switch {
				case a.Key == key && a.Kind == timeline.ArgInt:
					return float64(a.I)
				case a.Key == key && a.Kind == timeline.ArgFloat:
					return a.F
				}
			}
			panic(fmt.Sprintf("experiments: %s/%s event at %v has no numeric %q argument", e.Lane, e.Name, e.Start, key))
		}
		switch {
		case e.Lane == "sched" && e.Kind == timeline.KindInstant:
			s.Branches = append(s.Branches, e.Name)
		case e.Lane == "sched" && e.Name == "alloc":
			s.PrefillSMs.Add(e.Start, arg("prefillSMs"))
			s.DecodeSMs.Add(e.Start, arg("decodeSMs"))
			s.Waiting.Add(e.Start, arg("waiting"))
			s.DecodeBatch.Add(e.Start, arg("decodeBatch"))
		case e.Lane == "prefill" && e.Name == "batch-start":
			s.PrefillTokens.Add(e.Start, arg("tokens"))
			s.Waiting.Add(e.Start, arg("waiting"))
		case e.Lane == "hybrid" && e.Name == "batch":
			s.DecodeBatch.Add(e.Start, arg("decodeTokens"))
			s.PrefillTokens.Add(e.Start, arg("chunkTokens"))
			s.Waiting.Add(e.Start, arg("waiting"))
		case e.Lane == "estimator":
			s.Observations = append(s.Observations, estimator.Sample{Kind: e.Name,
				Predicted: units.Seconds(arg("predicted")), Actual: units.Seconds(arg("actual"))})
		}
	}
	return s
}
