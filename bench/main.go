// Command bench measures how fast the simulator runs Bullet's
// spatial-temporal orchestration, end to end and layer by layer. It
// drives the simulator only through its public entry points and times
// those calls from outside.
//
// Usage, from this directory:
//
//	go run . -workload all -seed 42
//
// or from the repository root, building into .bench_build/:
//
//	bash bench/run.sh --workload arxiv-backlog --seed 7 --seconds 20 --trace 0
//
// Each workload runs up to three phases in one process: a timed phase
// with tracing off (the end-to-end metrics), a profiled phase that
// charges CPU samples to simulator modules, and a traced phase that
// counts timeline events into deterministic work counters. The last line
// of standard output is one JSON object with the verdict and the
// metrics. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; trace 0 reports
// them.
var endToEnd = []metricDef{
	{"sim_req_per_s", "req/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of single simulator layers, plus the
// simulated serving results, which are exact functions of the seed but
// vary too much between seeds to carry a regression bound; trace 1
// reports them.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim_goodput_rps", "req/s"},
		{"sim_slo_attainment", "frac"},
		{"sim_ttft_p50_s", "s"},
		{"sim_ttft_p99_s", "s"},
		{"sim_tpot_p99_ms", "ms"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".self_us_per_req", "us/req"})
	}
	return append(defs,
		metricDef{"sim.events_per_req", "1/req"},
		metricDef{"gpusim.kernels_per_req", "1/req"},
		metricDef{"gpusim.rerates_per_req", "1/req"},
		metricDef{"gpusim.resident_per_rerate", "kernels"},
		metricDef{"sched.decisions_per_req", "1/req"},
		metricDef{"engine.prefill_batches_per_req", "1/req"},
		metricDef{"engine.decode_steps_per_req", "1/req"},
		metricDef{"engine.waiting_per_batch_p50", "req"},
		metricDef{"engine.queue_wait_p50_s", "s"},
		metricDef{"resource.repartitions_per_req", "1/req"},
		metricDef{"kvcache.peak_occupancy", "frac"},
		metricDef{"cluster.router_events_per_req", "1/req"},
		metricDef{"resilience.dispatch_timeouts_per_req", "1/req"},
		metricDef{"resilience.hedges_per_req", "1/req"},
		metricDef{"resilience.retries_per_req", "1/req"},
		metricDef{"resilience.sheds_per_req", "1/req"},
		metricDef{"resilience.breaker_opens", "count"},
		metricDef{"faults.injected", "count"},
		metricDef{"timeline.events_per_req", "1/req"},
		metricDef{"timeline.overhead_frac", "frac"},
		metricDef{"runtime.alloc_kb_per_req", "KB/req"},
		metricDef{"runtime.gc_cycles_per_kreq", "1/kreq"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"profile.overhead_frac", "frac"},
		metricDef{"profile.samples", "count"},
	)
}()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns 0 when every workload passed its
// correctness gate, 1 when one did not, and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range specs {
		names = append(names, w.name)
	}
	name := fs.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 42, "seed of each round's first trace; later traces use seed+1, ...")
	seconds := fs.Float64("seconds", 10, "wall seconds the timed phase measures")
	trace := fs.Int("trace", -1, "0: timed phase, end-to-end metrics; 1: every phase, per-layer metrics; -1: every phase, every metric")
	out := fs.String("out", os.TempDir(), "directory for the Chrome trace and CPU profile (empty: write none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace < -1 || *trace > 1:
		fmt.Fprintf(stderr, "bench: -trace must be 0, 1 or -1, got %d\n", *trace)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "bench: -seconds must not be negative\n")
		return 2
	}
	selected := specs
	if *name != "all" {
		w, err := specByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		selected = []spec{*w}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: output directory: %v\n", err)
			return 2
		}
	}

	log := bufio.NewWriter(stdout)
	defer log.Flush()
	fmt.Fprintf(log, "host: %s, %d cores, GOMAXPROCS %d, %s %s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace, out: *out,
		minRounds: 3, profile: true, profileCPU: 8 * time.Second, log: log,
	}
	var reps []*report
	for i := range selected {
		w := &selected[i]
		fmt.Fprintf(log, "\n== %s (seed %d): %s\n", w.name, *seed, w.why)
		start := time.Now()
		rep := w.bench(o)
		printReport(log, rep, *trace)
		fmt.Fprintf(log, "workload wall time %.1fs\n", time.Since(start).Seconds())
		reps = append(reps, rep)
	}

	line, ok, err := resultJSON(reps, *trace, len(selected) > 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(log, line)
	if !ok {
		return 1
	}
	return 0
}

// reported returns the metrics a trace setting reports.
func reported(trace int) []metricDef {
	switch trace {
	case 0:
		return endToEnd
	case 1:
		return perLayer
	}
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

func printReport(w io.Writer, rep *report, trace int) {
	fmt.Fprintf(w, "requests: sent %d, lost %d\n", rep.sent, rep.lost)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	for _, m := range reported(trace) {
		fmt.Fprintf(w, "  %-38s %16.6g %s\n", m.name, rep.values[m.name], m.unit)
	}
}

// resultJSON renders the final line: the verdict, the requests attempted
// and lost, and every reported metric. With several workloads each
// metric name is prefixed by its workload's.
func resultJSON(reps []*report, trace int, prefix bool) (string, bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, rep := range reps {
		res.Correct = res.Correct && rep.correct()
		res.Attempted += rep.sent
		res.Failed += rep.lost
		for _, m := range reported(trace) {
			v := rep.values[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", false, fmt.Errorf("%s: metric %s is %v", rep.workload, m.name, v)
			}
			key := m.name
			if prefix {
				key = rep.workload + "." + key
			}
			res.Metrics[key] = value{v, m.unit}
		}
	}
	b, err := json.Marshal(res)
	return string(b), res.Correct, err
}

// cpuModel names the host CPU for the report header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}
