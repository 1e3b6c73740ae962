package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/workload"
)

// Every run of the benchmark also replays one reference trace per
// workload, at a fixed seed and size, and holds its outcome to
// golden.json bit for bit. A change that only makes the simulator faster
// leaves the simulated results unchanged. A change that alters them fails
// the correctness gate until golden.json is regenerated with
// `go test -run TestGolden -update` and the diff reviewed.
const (
	goldenSeed = 1
	goldenN    = 200 // requests, or the workload's own trace size if smaller
)

//go:embed golden.json
var goldenJSON []byte

// goldenRun is the pinned outcome of a workload's reference trace.
type goldenRun struct {
	Digest        string  `json:"digest"`
	Sent          int     `json:"sent"`
	Completed     int     `json:"completed"`
	Shed          int     `json:"shed"`
	GoodputRPS    float64 `json:"sim_goodput_rps"`
	SLOAttainment float64 `json:"sim_slo_attainment"`
	TTFTP50S      float64 `json:"sim_ttft_p50_s"`
	TTFTP99S      float64 `json:"sim_ttft_p99_s"`
	TPOTP99Ms     float64 `json:"sim_tpot_p99_ms"`
}

// referenceRun replays w's reference trace on a fresh deployment.
func (w *spec) referenceRun() (goldenRun, *workload.Trace, outcome) {
	l := newSpanLog()
	in, _ := w.setup(goldenSeed, min(w.n, goldenN), 0, l)
	o, _ := in.run(l)
	s := summarize(w, []*workload.Trace{in.trace}, []outcome{o})
	return goldenRun{
		Digest: fmt.Sprintf("%016x", digest(o)), Sent: s.sent, Completed: s.completed, Shed: s.shed,
		GoodputRPS: s.goodput, SLOAttainment: s.slo, TTFTP50S: s.ttftP50, TTFTP99S: s.ttftP99, TPOTP99Ms: s.tpotP99Ms,
	}, in.trace, o
}

// checkGolden runs w's reference trace and holds it to golden.json.
func (w *spec) checkGolden(rep *report) {
	got, tr, o := w.referenceRun()
	rep.sent += got.Sent
	if n, why := lost(tr, o); n > 0 {
		rep.lost += n
		rep.problem("%s: reference run lost %d requests (%s)", w.name, n, why)
		return
	}
	var pinned map[string]goldenRun
	if err := json.Unmarshal(goldenJSON, &pinned); err != nil {
		rep.problem("%s: golden.json: %v", w.name, err)
		return
	}
	if want, ok := pinned[w.name]; !ok || want != got {
		rep.problem("%s: reference run (seed %d, %d requests) gives %+v; golden.json pins %+v",
			w.name, goldenSeed, got.Sent, got, want)
	}
}
