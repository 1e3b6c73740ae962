// Burst load timeline: drive Bullet with a bursty Azure-Code workload and
// render an ASCII Fig. 12 — watch the scheduler re-provision SMs between
// prefill and decode as bursts arrive, and the pending queue stay flat.
//
// This example reaches below the public facade into the library's
// internal layers to fold a timeline recorder's events into series.
//
//	go run ./examples/burstload [-rate 3] [-n 150]
package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	rate := flag.Float64("rate", 3, "base load (req/s); bursts run at 3x")
	n := flag.Int("n", 150, "requests")
	flag.Parse()

	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	sys := core.New(env, core.Options{Mode: core.ModeFull})
	rec := timeline.New(0)
	sys.AttachTimeline(rec)
	trace := workload.GenerateBursty(workload.AzureCode, *rate, 3, 8, *n, 42)
	res := env.Run(sys, trace)

	fmt.Printf("Bullet on bursty Azure-Code (base %.1f req/s, 3x bursts every 8s)\n", *rate)
	fmt.Printf("TTFT %.0f ms mean, TPOT %.1f ms, SLO %.1f%%, %d decode pauses\n\n",
		1000*res.Summary.MeanTTFT, res.Summary.MeanTPOTMs,
		100*res.Summary.SLOAttainment, sys.Decode.Pauses())

	tl := experiments.SeriesFromTimeline(rec)
	const cols = 72
	bar := func(s *metrics.Series, t units.Seconds, max float64, glyph byte) string {
		v := s.At(t)
		w := int(v / max * 24)
		if w > 24 {
			w = 24
		}
		return fmt.Sprintf("%5.0f %s", v, strings.Repeat(string(glyph), w))
	}
	fmt.Println("  t(s)  prefill-SMs              decode-SMs               waiting")
	for i := 0; i <= cols; i += 2 {
		t := units.Over(units.Scale(res.Makespan, float64(i)), float64(cols))
		fmt.Printf("%6.1f  %-26s %-26s %s\n",
			t,
			bar(&tl.PrefillSMs, t, 108, '#'),
			bar(&tl.DecodeSMs, t, 108, '='),
			bar(&tl.Waiting, t, 12, '*'),
		)
	}

	branches := map[string]int{}
	for _, k := range tl.Branches {
		branches[k]++
	}
	fmt.Println("\nAlgorithm 1 branch frequencies:")
	for _, k := range []string{"reduce-decode", "reduce-prefill", "balance", "pause-decode", "handover", "prefill-only", "decode-only", "idle"} {
		if c := branches[k]; c > 0 {
			fmt.Printf("  %-15s %d\n", k, c)
		}
	}
}
