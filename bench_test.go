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

	"repro/internal/cluster"
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

// BenchmarkClusterScale measures what a simulated request costs as the
// cluster grows: azure-code behind a least-loaded router at 4.5 req/s
// and 100 requests per replica (3,200 at most), seed 42, for 4, 16 and
// 64 replicas, advanced serially (workers 1) and at the fork/join
// default width. Both widths produce identical results (the cluster
// package's serial ≡ parallel tests and the -workers 4 golden rows pin
// that), so only the wall time may differ. Each sub-benchmark reports
// wall-clock µs per simulated request; BENCH_cluster_sweep.json records
// measured runs.
func BenchmarkClusterScale(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		reqs := min(100*n, 3200)
		trace := workload.Generate(workload.AzureCode, 4.5*float64(n), reqs, 42)
		for _, width := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"default", 0}} {
			b.Run(fmt.Sprintf("%d/%s", n, width.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					experiments.MustBuild(experiments.Spec{System: "bullet", Dataset: workload.AzureCode,
						Replicas: n, Policy: cluster.LeastLoaded, Workers: width.workers}).Run(trace)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(reqs*b.N), "us/req")
			})
		}
	}
}
