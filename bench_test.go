// Benchmarks regenerating every table and figure of the paper's
// evaluation and the extension studies. BenchmarkExperiments walks
// experiments.Registry, one sub-benchmark per id; each prints its table
// once, exactly as `bulletbench -exp <id>` does, so `go test -bench=.`
// output doubles as the reproduction report, and then measures the
// regeneration cost.
//
// Run `go test -bench=. -benchmem` for everything, or select one, e.g.
// `go test -bench=Experiments/fig11 -benchtime=1x`. Under -short each
// experiment runs its `bulletbench -quick` parameters.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// wallTimer returns a monotonic wall-clock timer in seconds for the
// overhead measurements. Benchmarks run outside the deterministic
// internal tree, so reading the host clock is fine here.
func wallTimer() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// BenchmarkExperiments regenerates each registered experiment. The table
// prints on the first iteration only, and the timer is deliberately not
// reset after it: the regeneration work dominates the print by orders of
// magnitude, and resetting after a long first iteration would make the
// framework scale b.N up on the heavy sweeps.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			p := e.Full
			if testing.Short() {
				p = e.Quick
			}
			p.Clock = wallTimer()
			for i := 0; i < b.N; i++ {
				out := e.Run(p)
				if i == 0 {
					fmt.Printf("===== %s =====\n%s\n", e.ID, out)
				}
			}
		})
	}
}

// BenchmarkTimelineOverhead pins the observability acceptance bar: a
// serving run with tracing disabled (the nil-recorder fast path) must
// cost the same as before the timeline layer existed, and the enabled
// sub-benchmark quantifies what full recording adds. Compare the two
// with `go test -bench TimelineOverhead -benchmem`.
func BenchmarkTimelineOverhead(b *testing.B) {
	const n = 60
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.RunOne("bullet", workload.AzureCode, 5, n, 3)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.RunOneTraced("bullet", workload.AzureCode, 5, n, 3)
		}
	})
}

// BenchmarkClusterSweepParallelism pins the forkjoin speedup claim: the
// replica sweep (cluster sizes 1/2/4) run serially (workers=1) versus
// through the harness default (GOMAXPROCS-bounded workers). By the
// concurrency contract the two produce byte-identical tables — the
// cluster row of cmd/bulletsim's TestGolden checks both widths — so the
// only thing allowed to differ is the wall-clock this benchmark
// measures. Each sub-benchmark reports the simulated-request completion
// rate; BENCH_cluster_sweep.json records a measured run.
func BenchmarkClusterSweepParallelism(b *testing.B) {
	n := 150
	if testing.Short() {
		n = 60
	}
	const sweepSizes = 3 // cluster sizes 1, 2, 4
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.ExtClusterN(workload.AzureCode, 9, n, 42, workers)
			}
			b.ReportMetric(float64(sweepSizes*n*b.N)/b.Elapsed().Seconds(), "req/s")
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
}
