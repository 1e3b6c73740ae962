package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// Table3Row is one control-plane component's measured CPU overhead
// (Table 3 of the paper). Values are wall-clock microseconds of this
// implementation's hot path.
type Table3Row struct {
	Component string
	MeanUs    float64
	StdUs     float64
	P90Us     float64
	P99Us     float64
}

// Table3 measures the scheduling control plane: metadata snapshot
// (send/recv equivalent), performance prediction, scheduler decision, and
// resource re-configuration. The paper's metadata path also includes
// Python serialization and IPC, which this reproduction models as the
// buffer's 0.21 ms simulated latency; the rows below are the in-process
// costs.
//
// timer supplies monotonic seconds and is the only clock this function
// reads: real measurements inject a wall-clock timer from a cmd/ main or
// benchmark (outside the deterministic internal tree), while tests inject
// a synthetic counter so the output is bit-reproducible. A nil timer
// falls back to a fixed-increment synthetic clock.
func Table3(iters int, timer func() float64) []Table3Row {
	if timer == nil {
		t := 0.0
		timer = func() float64 {
			t += 1e-6
			return t
		}
	}
	spec, cfg := Platform()
	s := sim.New()
	g := gpusim.New(s, spec)
	res := resource.NewManager(g, 6)
	est := estimator.New(cfg, spec, estimator.DefaultParams())
	schd := sched.New(est, metricsSLO(), sched.Config{
		TotalLayers: cfg.NumLayers, LayerGroup: 1,
		NumSMs: spec.NumSMs, Levels: res.Levels(),
	})
	buf := table3Buffer(s)
	st := buf.Snapshot()

	measure := func(name string, fn func(i int)) Table3Row {
		durs := make([]float64, iters)
		for i := 0; i < iters; i++ {
			t0 := timer()
			fn(i)
			durs[i] = (timer() - t0) * 1e6
		}
		sort.Float64s(durs)
		mean := 0.0
		for _, d := range durs {
			mean += d
		}
		mean /= float64(iters)
		variance := 0.0
		for _, d := range durs {
			variance += (d - mean) * (d - mean)
		}
		return Table3Row{
			Component: name,
			MeanUs:    mean,
			StdUs:     math.Sqrt(variance / float64(iters)),
			P90Us:     durs[(iters*9)/10],
			P99Us:     durs[(iters*99)/100],
		}
	}

	levels := res.Levels()
	return []Table3Row{
		measure("Metadata Snapshot", func(i int) { _ = buf.Snapshot() }),
		measure("Performance Predict", func(i int) {
			_ = est.PrefillLayerTime(2048, 84, true)
			_ = est.DecodeStepTime(64, units.Tokens(1500), 24, true)
		}),
		measure("Scheduler Decide", func(i int) { _ = schd.Decide(st) }),
		measure("Resource Re-config", func(i int) {
			_ = res.Stream(resource.Prefill, levels[i%len(levels)])
		}),
	}
}

// table3Buffer builds the metadata buffer Table 3 snapshots: a running
// prefill batch, one waiting request and a 64-request decode batch. Its
// providers return statuses built once here, as the engines' providers
// fill their own snapshot scratch in place, so a snapshot allocates
// nothing.
func table3Buffer(s *sim.Simulation) *engine.Buffer {
	prefill := sched.PrefillStatus{
		Active: true, Tokens: 4096, LayersDone: 10,
		Arrivals:    []sim.Time{0, 0, 0},
		InputTokens: []int{1024, 2048, 1024},
	}
	waiting := []sched.WaitingReq{{Arrival: 0, InputTokens: 2048}}
	decode := sched.DecodeStatus{Batch: 64, AvgCtx: 1500,
		Elapsed: make([]units.Seconds, 64), Generated: make([]int, 64)}
	for i := range decode.Elapsed {
		decode.Elapsed[i] = 0.2
		decode.Generated[i] = 8
	}
	buf := engine.NewBuffer(s, units.Seconds(0.21e-3))
	buf.RegisterPrefill(func() (sched.PrefillStatus, []sched.WaitingReq) { return prefill, waiting })
	buf.RegisterDecode(func() sched.DecodeStatus { return decode })
	buf.SetAllocation(84, 24)
	return buf
}

// RenderTable3 prints the overhead table.
func RenderTable3(rows []Table3Row) string {
	header := []string{"Component", "Mean(us)", "Std", "P90", "P99"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Component, f2(r.MeanUs), f2(r.StdUs), f2(r.P90Us), f2(r.P99Us)})
	}
	var sb strings.Builder
	sb.WriteString("Table 3: control-plane CPU overheads (wall clock, this implementation)\n")
	sb.WriteString(table(header, cells))
	fmt.Fprintf(&sb, "\nModelled inter-engine metadata latency (paper: 0.21 ms mean): %.2f ms\n", 0.21)
	return sb.String()
}
