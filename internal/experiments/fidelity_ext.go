package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// FidelityBackends are the ext-fidelity contenders, analytic first: the
// divergence columns of every row are measured against the analytic
// run's decision sequence.
var FidelityBackends = []string{
	gpusim.BackendAnalytic, gpusim.BackendSampled, gpusim.BackendHierarchy,
}

// FidelityRow is one latency backend's serving run over the shared
// trace: how often Algorithm 1 chose a different arm than it did on the
// analytic substrate, how accurate the estimator stayed, and where the
// end-to-end metrics landed.
type FidelityRow struct {
	Backend string
	// Decisions is the number of Algorithm 1 invocations observed.
	Decisions int
	// Diverged counts positions in the decision sequence whose chosen
	// arm differs from the analytic run's (plus any length difference).
	Diverged int
	// EstPairs / EstMeanRel / EstP90Rel summarize the estimator's
	// (prediction, observation) relative error on this substrate.
	EstPairs   int
	EstMeanRel float64
	EstP90Rel  float64

	MeanTTFT      float64 // seconds
	P90TPOTMs     float64
	Throughput    float64
	SLOAttainment float64
}

// branchDivergence counts index-aligned positions where the two decision
// sequences chose different Algorithm 1 arms; extra trailing decisions
// on either side each count as one divergence.
func branchDivergence(ref, got []string) int {
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	d := 0
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			d++
		}
	}
	return d + (len(ref) - n) + (len(got) - n)
}

// ExtFidelity serves one shared trace on each latency backend and
// reports how scheduler decisions and estimator accuracy move across
// the fidelity spectrum (extension, DESIGN.md §15). The analytic row is
// the reference: its divergence is zero by construction, and its serving
// metrics are byte-for-byte those of a default bullet run.
func ExtFidelity(d workload.Dataset, rate float64, n int, seed int64) []FidelityRow {
	spec, cfg := Platform()
	trace := workload.Generate(d, rate, n, seed)
	var ref []string
	rows := make([]FidelityRow, 0, len(FidelityBackends))
	for _, backend := range FidelityBackends {
		env := serving.NewEnv(spec, cfg, d.Name)
		b := core.New(env, core.Options{Mode: core.ModeFull, Backend: backend})
		rec := timeline.New(0)
		b.Prefill.TL, b.Decode.TL = rec, rec // the engines' events alone, as in Figure12
		res := env.Run(b, trace)
		tl := SeriesFromTimeline(rec)
		branches := tl.Branches
		var rels []float64
		for _, o := range tl.Observations {
			if o.Predicted > 0 && o.Actual > 0 {
				rels = append(rels, o.RelError())
			}
		}
		if backend == gpusim.BackendAnalytic {
			ref = branches
		}
		row := FidelityRow{
			Backend:       backend,
			Decisions:     len(branches),
			Diverged:      branchDivergence(ref, branches),
			MeanTTFT:      res.Summary.MeanTTFT.Float(),
			P90TPOTMs:     res.Summary.P90TPOTMs,
			Throughput:    res.Summary.Throughput,
			SLOAttainment: res.Summary.SLOAttainment,
		}
		if len(rels) > 0 {
			sort.Float64s(rels)
			sum := 0.0
			for _, r := range rels {
				sum += r
			}
			row.EstPairs = len(rels)
			row.EstMeanRel = sum / float64(len(rels))
			row.EstP90Rel = rels[(len(rels)*9)/10]
		}
		rows = append(rows, row)
	}
	return rows
}

// FidelityClusterRow is one replica-count point of the sampled-backend
// cluster arm.
type FidelityClusterRow struct {
	Replicas      int
	Backend       string
	MeanTTFT      float64
	Throughput    float64
	SLOAttainment float64
}

// ExtFidelityCluster runs the sampled backend under the deterministic
// fork/join cluster harness (1 and 2 replicas). Per-replica backends
// draw from splitmix-forked seed streams, so the rows are identical for
// any worker count — the serial ≡ parallel property the backend
// contract demands (pinned by TestFidelityClusterSerialParallel).
func ExtFidelityCluster(d workload.Dataset, rate float64, n int, seed int64, workers int) []FidelityClusterRow {
	spec, cfg := Platform()
	// Warm the memoized profile and calibration table before forking so
	// parallel replicas share them instead of racing to compute them.
	core.FittedParams(cfg, spec)
	core.FittedLatencyTable(cfg, spec)
	var rows []FidelityClusterRow
	for _, replicas := range []int{1, 2} {
		env := serving.NewEnv(spec, cfg, d.Name)
		opts := core.Options{Mode: core.ModeFull, Backend: gpusim.BackendSampled}
		var sys serving.System
		if replicas == 1 {
			sys = core.New(env, opts)
		} else {
			sys = cluster.New(env, cluster.Config{
				Replicas: replicas, Policy: cluster.LeastLoaded,
				Options: opts, Workers: workers,
			})
		}
		res := env.Run(sys, workload.Generate(d, rate, n, seed))
		rows = append(rows, FidelityClusterRow{
			Replicas: replicas, Backend: gpusim.BackendSampled,
			MeanTTFT:      res.Summary.MeanTTFT.Float(),
			Throughput:    res.Summary.Throughput,
			SLOAttainment: res.Summary.SLOAttainment,
		})
	}
	return rows
}

// RenderExtFidelity prints both ext-fidelity tables.
func RenderExtFidelity(rows []FidelityRow, crows []FidelityClusterRow) string {
	var sb strings.Builder
	sb.WriteString("Extension: latency-backend fidelity (Algorithm 1 divergence, estimator error)\n")
	hdr := []string{"backend", "decisions", "diverged", "est.pairs", "est.mean%", "est.p90%", "ttft(s)", "p90tpot(ms)", "thru", "slo"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			r.Backend, itoa(r.Decisions), itoa(r.Diverged), itoa(r.EstPairs),
			f1(100 * r.EstMeanRel), f1(100 * r.EstP90Rel),
			f3(r.MeanTTFT), f2(r.P90TPOTMs), f2(r.Throughput), f2(r.SLOAttainment),
		})
	}
	sb.WriteString(table(hdr, body))
	sb.WriteString("\nSampled-backend cluster arm (forked per-replica draw streams):\n")
	chdr := []string{"replicas", "backend", "ttft(s)", "thru", "slo"}
	cbody := make([][]string, 0, len(crows))
	for _, r := range crows {
		cbody = append(cbody, []string{
			itoa(r.Replicas), r.Backend, f3(r.MeanTTFT), f2(r.Throughput), f2(r.SLOAttainment),
		})
	}
	sb.WriteString(table(chdr, cbody))
	fmt.Fprintf(&sb, "\ndivergence = Algorithm 1 arms differing from the analytic run at the same decision index\n")
	return sb.String()
}
