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
// -trace-out works on any system and composes with -faults and
// -backend: the trace records the run those flags describe.
//
// With -exp any registered experiment (the ids bulletbench -list prints)
// runs instead of a single serving run, parameterized by whichever of
// -dataset, -rate, -n, -seed and -workers its registry entry lists; rate
// sweeps such as ext-pressure and ext-qos cover -rate, 2× and 3×. Any
// other flag except -cpuprofile and -memprofile is an error with that
// -exp, and -workers is an error without -exp. Output is byte-identical
// across runs of the same flags and at every -workers value (except
// table3, which times the host).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/bullet"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/timeline"
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
	var o serveFlags
	fs.StringVar(&o.System, "system", "bullet", "serving system (see -list)")
	fs.StringVar(&o.Dataset, "dataset", "sharegpt", "workload dataset")
	fs.Float64Var(&o.rate, "rate", 8, "offered load in requests/second")
	fs.IntVar(&o.n, "n", 300, "number of requests")
	fs.Int64Var(&o.seed, "seed", 42, "trace random seed")
	fs.StringVar(&o.Backend, "backend", "", "per-kernel latency backend: analytic, sampled or hierarchy (Bullet systems only)")
	fs.Int64Var(&o.BackendSeed, "backend-seed", 1, "sampled-backend draw seed")
	fs.BoolVar(&o.json, "json", false, "emit the full result as JSON")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a deterministic timeline trace (Perfetto-loadable Chrome JSON)")
	fs.BoolVar(&o.faults, "faults", false, "inject a deterministic fault schedule (Bullet systems only)")
	fs.Float64Var(&o.faultRate, "fault-rate", 0.1, "SM-degradation and engine-stall rates, events/s of virtual time")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault schedule random seed")
	var (
		exp     = fs.String("exp", "", "run a registered experiment instead of one serving run (see -list)")
		workers = fs.Int("workers", 0, "fork/join width of -exp cluster arms (0 = GOMAXPROCS default, 1 = serial)")
		list    = fs.Bool("list", false, "list systems, datasets and experiments, then exit")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "bulletsim:", err)
		return 1
	}

	var e experiments.Experiment
	if *exp != "" {
		var ok bool
		if e, ok = experiments.Lookup(*exp); !ok {
			return fail(fmt.Errorf("unknown experiment %q (have %s)", *exp, strings.Join(experiments.IDs(), ", ")))
		}
		// An experiment reads only the flags its entry lists, plus the
		// profiles; reject any other rather than run without it.
		takes := append(slices.Clone(e.Flags), "cpuprofile", "memprofile")
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "exp" && !slices.Contains(takes, f.Name) {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fail(fmt.Errorf("-exp does not use %s (%s takes -%s)",
				strings.Join(ignored, ", "), e.ID, strings.Join(takes, ", -")))
		}
	}

	// Reject bad load, and a -workers no run would use, before anything
	// is built or written: a NaN rate would otherwise reach the
	// simulator as NaN arrival times.
	workersSet := false
	fs.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	switch {
	case !(o.rate > 0) || math.IsInf(o.rate, 1):
		return fail(fmt.Errorf("-rate must be finite and > 0, got %v", o.rate))
	case o.n <= 0:
		return fail(fmt.Errorf("-n must be > 0, got %d", o.n))
	case !(o.faultRate >= 0) || math.IsInf(o.faultRate, 1):
		return fail(fmt.Errorf("-fault-rate must be finite and >= 0, got %v", o.faultRate))
	case *workers < 0:
		return fail(fmt.Errorf("-workers must be >= 0, got %d", *workers))
	case workersSet && *exp == "":
		return fail(fmt.Errorf("-workers sizes the cluster arms of -exp and needs it"))
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
		fmt.Fprintln(stdout, "         extensions bullet-prefix, bullet-gate, bullet-pressure, bullet-qos,")
		fmt.Fprintln(stdout, "         disaggregation disagg-nvlink, disagg-pcie")
		fmt.Fprintln(stdout, "datasets:", strings.Join(bullet.Datasets(), ", "))
		fmt.Fprintln(stdout, "models:  ", strings.Join(bullet.Models(), ", "))
		fmt.Fprintln(stdout, "backends: analytic, sampled, hierarchy (Bullet systems only)")
		fmt.Fprintln(stdout, "experiments:", strings.Join(experiments.IDs(), ", "))
		return 0
	}

	if *exp != "" {
		if err := runExperiment(e, o.Dataset, o.rate, o.n, o.seed, *workers, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if o.faults || o.traceOut != "" {
		if err := runInstrumented(o, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	srv, err := bullet.New(o.Config)
	if err != nil {
		return fail(err)
	}
	tr, err := bullet.GenerateTrace(o.Dataset, o.rate, o.n, o.seed)
	if err != nil {
		return fail(err)
	}
	res, err := srv.Run(tr)
	if err != nil {
		return fail(err)
	}

	if o.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}
	printSummary(stdout, o.Dataset, o.rate, o.n, o.seed, res)
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

// serveFlags are the flags that shape one serving run.
type serveFlags struct {
	bullet.Config
	traceOut        string
	rate, faultRate float64
	n               int
	seed, faultSeed int64
	json, faults    bool
}

// runInstrumented executes one serving run built by experiments.Build.
// -faults injects a generated fault schedule and prints the resilience
// accounting; -trace-out attaches the timeline recorder to every layer
// and writes a deterministic Chrome trace-event file (the same flags
// always produce a byte-identical trace, loadable at ui.perfetto.dev).
// Under -json the timeline summary goes to stderr.
func runInstrumented(o serveFlags, stdout, stderr io.Writer) error {
	d, err := workload.ByName(o.Dataset)
	if err != nil {
		return err
	}
	spec := experiments.Spec{System: o.System, Dataset: d, Backend: o.Backend, BackendSeed: o.BackendSeed}
	if o.faults {
		device, _ := experiments.Platform()
		// Cover the arrival span plus drain slack with faults.
		horizon := units.Scale(units.Over(units.Seconds(float64(o.n)), o.rate), 1.5)
		fcfg := faults.DefaultConfig(device.NumSMs, horizon)
		fcfg.Seed = o.faultSeed
		fcfg.DegradeRate = o.faultRate
		fcfg.StallRate = o.faultRate
		sched := faults.Generate(fcfg)
		spec.Faults = &sched
	}
	dep, err := experiments.Build(spec)
	if err != nil {
		return err
	}
	var rec *timeline.Recorder
	if o.traceOut != "" {
		rec = timeline.New(0)
		dep.AttachTimeline(rec)
	}
	res := dep.Run(workload.Generate(d, o.rate, o.n, o.seed))
	rl := dep.Resilience()

	info := stdout
	switch s := res.Summary; {
	case o.json:
		out := struct {
			System     string
			Dataset    string
			Rate       float64
			Shed       int
			Summary    metrics.Summary
			Resilience metrics.Resilience
		}{res.System, o.Dataset, o.rate, res.Shed, res.Summary, rl}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		info = stderr
	case o.faults:
		fmt.Fprintf(stdout, "system          %s (faulty: degrade+stall @ %.2f/s, fault seed %d)\n", res.System, o.faultRate, o.faultSeed)
		fmt.Fprintf(stdout, "dataset         %s @ %.2f req/s (%d requests, seed %d)\n", o.Dataset, o.rate, o.n, o.seed)
		fmt.Fprintf(stdout, "completed       %d (%d shed)\n", s.Requests, res.Shed)
		fmt.Fprintf(stdout, "mean TTFT       %.3f s (P90 %.3f s)\n", s.MeanTTFT.Float(), s.P90TTFT.Float())
		fmt.Fprintf(stdout, "mean TPOT       %.1f ms (P90 %.1f ms)\n", s.MeanTPOTMs, s.P90TPOTMs)
		fmt.Fprintf(stdout, "throughput      %.2f req/s (goodput %.2f req/s)\n", s.Throughput, s.Goodput)
		fmt.Fprintf(stdout, "SLO attainment  %.1f%%\n", 100*s.SLOAttainment)
		fmt.Fprintf(stdout, "faults injected %d (scheduled downtime %.1f s)\n", rl.FaultsInjected, rl.Downtime.Float())
		fmt.Fprintf(stdout, "batch aborts    %d (retried %d, shed %d)\n", rl.BatchAborts, rl.Retried, rl.Shed)
		fmt.Fprintf(stdout, "recoveries      %d (MTTR %.2f s)\n", rl.Recoveries, rl.MTTR().Float())
		fmt.Fprintf(stdout, "makespan        %.1f s\n", res.Makespan.Float())
	default:
		fmt.Fprintf(stdout, "system %s: %d requests, %.1fs makespan\n",
			res.System, s.Requests, res.Makespan.Float())
	}
	if rec == nil {
		return nil
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprint(info, rec.Summary())
	fmt.Fprintf(info, "wrote %s (open at ui.perfetto.dev)\n", o.traceOut)
	return nil
}

// runExperiment runs a registered experiment with its parameters taken
// from the command line and prints its rendered tables.
func runExperiment(e experiments.Experiment, dataset string, rate float64, n int, seed int64, workers int, stdout io.Writer) error {
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
