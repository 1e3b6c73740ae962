// Command bulletsim runs a single serving experiment: one system, one
// dataset, one request rate, on the simulated A100.
//
// Usage:
//
//	bulletsim -system bullet -dataset azure-code -rate 5 -n 300 -seed 42
//	bulletsim -system sglang-1024 -dataset sharegpt -rate 16 -json
//	bulletsim -system bullet -backend sampled       # pluggable latency model
//	bulletsim -system bullet -trace-out out.json     # deterministic timeline trace
//	bulletsim -system bullet -faults -fault-rate 0.1 -fault-seed 7
//	bulletsim -exp ext-pressure -dataset azure-code -rate 4 -n 200
//	bulletsim -exp ext-chaos -dataset azure-code -rate 10 -n 120 -workers 4
//	bulletsim -list
//
// With -backend the Bullet variant runs on a non-default per-kernel
// latency model (DESIGN.md §15): "analytic" is the fluid roofline model,
// "sampled" draws deterministically from a self-calibrated per-operator
// latency table, "hierarchy" adds L2 cache-reuse interference between
// co-located kernels. Output is byte-identical across runs of the same
// flags for every backend.
//
// With -faults a deterministic fault schedule (SM degradations and
// engine stalls at -fault-rate events/s each, seeded by -fault-seed) is
// injected into the run and the resilience accounting is printed
// alongside the summary. Only Bullet variants support fault injection.
//
// With -exp any registered experiment (the ids bulletbench -list prints)
// runs instead of a single serving run, parameterized by -dataset, -rate,
// -n, -seed and -workers; rate sweeps such as ext-pressure and ext-qos
// cover -rate, 2× and 3×. Output is byte-identical across runs of the
// same flags and at every -workers value (except table3, which times
// the host).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/bullet"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/serving"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: golden byte-identity tests drive it
// in-process with a captured stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system    = fs.String("system", "bullet", "serving system (see -list)")
		dataset   = fs.String("dataset", "sharegpt", "workload dataset")
		rate      = fs.Float64("rate", 8, "offered load in requests/second")
		n         = fs.Int("n", 300, "number of requests")
		seed      = fs.Int64("seed", 42, "trace random seed")
		backend   = fs.String("backend", "", "per-kernel latency backend: analytic, sampled or hierarchy (Bullet systems only)")
		bkSeed    = fs.Int64("backend-seed", 1, "sampled-backend draw seed")
		asJSON    = fs.Bool("json", false, "emit the full result as JSON")
		traceOut  = fs.String("trace-out", "", "write a deterministic timeline trace (Perfetto-loadable Chrome JSON)")
		withFault = fs.Bool("faults", false, "inject a deterministic fault schedule (Bullet systems only)")
		faultRate = fs.Float64("fault-rate", 0.1, "SM-degradation and engine-stall rates, events/s of virtual time")
		faultSeed = fs.Int64("fault-seed", 1, "fault schedule random seed")
		exp       = fs.String("exp", "", "run a registered experiment instead of one serving run (see -list)")
		workers   = fs.Int("workers", 0, "fork/join width of -exp cluster arms (0 = GOMAXPROCS default, 1 = serial)")
		list      = fs.Bool("list", false, "list systems, datasets and experiments, then exit")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "bulletsim:", err)
		return 1
	}

	if *cpuProf != "" || *memProf != "" {
		stop, err := prof.Start(*cpuProf, *memProf)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "bulletsim:", err)
			}
		}()
	}

	if *list {
		fmt.Fprintln(stdout, "systems: ", strings.Join(bullet.Systems(), ", "))
		fmt.Fprintln(stdout, "         plus ablations bullet-naive, bullet-partition, bullet-scheduler, bullet-sm<N>,")
		fmt.Fprintln(stdout, "         disaggregation disagg-nvlink, disagg-pcie")
		fmt.Fprintln(stdout, "datasets:", strings.Join(bullet.Datasets(), ", "))
		fmt.Fprintln(stdout, "models:  ", strings.Join(bullet.Models(), ", "))
		fmt.Fprintln(stdout, "backends: analytic, sampled, hierarchy (Bullet systems only)")
		fmt.Fprintln(stdout, "experiments:", strings.Join(experiments.IDs(), ", "))
		return 0
	}

	if *traceOut != "" {
		if err := runTimeline(*system, *dataset, *rate, *n, *seed, *traceOut, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *exp != "" {
		if err := runExperiment(*exp, *dataset, *rate, *n, *seed, *workers, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *withFault {
		if err := runFaulty(*system, *dataset, *rate, *n, *seed, *faultRate, *faultSeed, *asJSON, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	srv, err := bullet.New(bullet.Config{
		System: *system, Dataset: *dataset, Backend: *backend, BackendSeed: *bkSeed,
	})
	if err != nil {
		return fail(err)
	}
	tr, err := bullet.GenerateTrace(*dataset, *rate, *n, *seed)
	if err != nil {
		return fail(err)
	}
	res, err := srv.Run(tr)
	if err != nil {
		return fail(err)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}
	printSummary(stdout, *dataset, *rate, *n, *seed, res)
	return 0
}

func printSummary(w io.Writer, dataset string, rate float64, n int, seed int64, res bullet.Result) {
	fmt.Fprintf(w, "system          %s\n", res.System)
	fmt.Fprintf(w, "dataset         %s @ %.2f req/s (%d requests, seed %d)\n", dataset, rate, n, seed)
	fmt.Fprintf(w, "mean TTFT       %.3f s (P90 %.3f s)\n", res.MeanTTFT, res.P90TTFT)
	fmt.Fprintf(w, "P90 norm TTFT   %.2f ms/token\n", res.P90NormTTFT)
	fmt.Fprintf(w, "mean TPOT       %.1f ms (P90 %.1f ms)\n", res.MeanTPOTMs, res.P90TPOTMs)
	fmt.Fprintf(w, "throughput      %.2f req/s, %.0f tok/s\n", res.Throughput, res.TokenThru)
	fmt.Fprintf(w, "SLO attainment  %.1f%%\n", 100*res.SLOAttainment)
	fmt.Fprintf(w, "makespan        %.1f s\n", res.Makespan)
}

// runFaulty executes the run with a generated fault schedule injected
// and prints the resilience accounting alongside the usual summary.
func runFaulty(system, dataset string, rate float64, n int, seed int64, faultRate float64, faultSeed int64, asJSON bool, stdout io.Writer) error {
	spec, cfg := experiments.Platform()
	d, err := workload.ByName(dataset)
	if err != nil {
		return err
	}
	env := serving.NewEnv(spec, cfg, dataset)
	sys := experiments.NewSystem(system, env)
	b, ok := sys.(*core.Bullet)
	if !ok {
		return fmt.Errorf("-faults requires a Bullet variant, got %q", system)
	}
	// Cover the arrival span plus drain slack with faults.
	horizon := units.Scale(units.Over(units.Seconds(float64(n)), rate), 1.5)
	fcfg := faults.DefaultConfig(spec.NumSMs, horizon)
	fcfg.Seed = faultSeed
	fcfg.DegradeRate = faultRate
	fcfg.StallRate = faultRate
	inj := faults.NewInjector(env.Sim, faults.Generate(fcfg))
	b.AttachFaults(inj, core.DefaultWatchdog())
	inj.Arm()
	res := env.Run(sys, workload.Generate(d, rate, n, seed))
	rl := b.Resilience()
	rl.FaultsInjected = inj.Injected()
	rl.Downtime = inj.ScheduledDowntime()

	if asJSON {
		out := struct {
			System     string
			Dataset    string
			Rate       float64
			Shed       int
			Summary    metrics.Summary
			Resilience metrics.Resilience
		}{res.System, dataset, rate, res.Shed, res.Summary, rl}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	s := res.Summary
	fmt.Fprintf(stdout, "system          %s (faulty: degrade+stall @ %.2f/s, fault seed %d)\n", res.System, faultRate, faultSeed)
	fmt.Fprintf(stdout, "dataset         %s @ %.2f req/s (%d requests, seed %d)\n", dataset, rate, n, seed)
	fmt.Fprintf(stdout, "completed       %d (%d shed)\n", s.Requests, res.Shed)
	fmt.Fprintf(stdout, "mean TTFT       %.3f s (P90 %.3f s)\n", s.MeanTTFT.Float(), s.P90TTFT.Float())
	fmt.Fprintf(stdout, "mean TPOT       %.1f ms (P90 %.1f ms)\n", s.MeanTPOTMs, s.P90TPOTMs)
	fmt.Fprintf(stdout, "throughput      %.2f req/s (goodput %.2f req/s)\n", s.Throughput, s.Goodput)
	fmt.Fprintf(stdout, "SLO attainment  %.1f%%\n", 100*s.SLOAttainment)
	fmt.Fprintf(stdout, "faults injected %d (scheduled downtime %.1f s)\n", rl.FaultsInjected, rl.Downtime.Float())
	fmt.Fprintf(stdout, "batch aborts    %d (retried %d, shed %d)\n", rl.BatchAborts, rl.Retried, rl.Shed)
	fmt.Fprintf(stdout, "recoveries      %d (MTTR %.2f s)\n", rl.Recoveries, rl.MTTR().Float())
	fmt.Fprintf(stdout, "makespan        %.1f s\n", res.Makespan.Float())
	return nil
}

// runExperiment runs a registered experiment with its parameters taken
// from the command line and prints its rendered tables.
func runExperiment(id, dataset string, rate float64, n int, seed int64, workers int, stdout io.Writer) error {
	e, ok := experiments.Lookup(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(experiments.IDs(), ", "))
	}
	d, err := workload.ByName(dataset)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, e.Run(experiments.Params{
		Dataset: d, Rate: rate, N: n, Seed: seed, Workers: workers,
		Clock: func() float64 { return float64(time.Now().UnixNano()) / 1e9 },
	}))
	return nil
}

// runTimeline executes the run with the internal/timeline recorder
// attached across every layer (kernels, scheduling decisions, request
// lifecycles) and writes a deterministic Chrome trace-event file: the
// same flags always produce a byte-identical trace, loadable at
// ui.perfetto.dev or chrome://tracing.
func runTimeline(system, dataset string, rate float64, n int, seed int64, path string, stdout io.Writer) error {
	d, err := workload.ByName(dataset)
	if err != nil {
		return err
	}
	res, rec := experiments.RunOneTraced(system, d, rate, n, seed, 0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.WriteChrome(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "system %s: %d requests, %.1fs makespan\n",
		res.System, res.Summary.Requests, res.Makespan.Float())
	fmt.Fprint(stdout, rec.Summary())
	fmt.Fprintf(stdout, "wrote %s (open at ui.perfetto.dev)\n", path)
	return nil
}
