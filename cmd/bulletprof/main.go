// Command bulletprof runs the offline profiling of §3.2.2 against the
// simulated device and reports the fitted Equation 2 parameters and model
// accuracy (Fig. 15 offline half).
//
// Usage:
//
//	bulletprof              # quick grid
//	bulletprof -full        # the paper-scale sampled grid (~minutes)
//	bulletprof -samples     # dump every profiled configuration
//	bulletprof -model qwen2-7b
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/bullet"
	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full    = fs.Bool("full", false, "use the full sampled grid")
		dump    = fs.Bool("samples", false, "print every profiled configuration")
		modelID = fs.String("model", "llama-3.1-8b", "model preset ("+strings.Join(bullet.Models(), ", ")+")")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bulletprof: unexpected arguments %q\n", fs.Args())
		return 2
	}

	cfg, ok := model.Presets()[*modelID]
	if !ok {
		fmt.Fprintf(stderr, "bulletprof: unknown model %q (have %s)\n", *modelID, strings.Join(bullet.Models(), ", "))
		return 1
	}
	spec := gpusim.A100()
	opts := estimator.QuickProfileOptions(spec)
	if *full {
		opts = estimator.DefaultProfileOptions(spec)
	}

	_, rep := estimator.Profile(cfg, spec, opts)
	fmt.Fprintf(stdout, "device   %s (%d SMs, %.0f TFLOPS, %.1f TB/s)\n",
		spec.Name, spec.NumSMs, spec.PeakFLOPS/1e12, spec.PeakBW/1e12)
	fmt.Fprintf(stdout, "model    %s (%.2fB params)\n", cfg.Name, cfg.ParamCount()/1e9)
	fmt.Fprintf(stdout, "trials   %d\n", rep.Trials)
	fmt.Fprintf(stdout, "fitted   d_c=%.3f d_b=%.3f p_c=%.3f p_b=%.3f\n",
		rep.Params.DC, rep.Params.DB, rep.Params.PC, rep.Params.PB)
	fmt.Fprintf(stdout, "accuracy mean rel err %.1f%%, P90 %.1f%%, SLO classification %.0f%%\n",
		100*rep.MeanRelError, 100*rep.P90RelError,
		100*estimator.ClassificationAccuracy(rep.Samples, 1.0))

	if *dump {
		fmt.Fprintln(stdout, "\nkind           seq   batch  ctx    SMs  actual(ms)  predicted(ms)  relerr")
		for _, s := range rep.Samples {
			fmt.Fprintf(stdout, "%-14s %-5d %-6d %-6.0f %-4d %-11.3f %-14.3f %.1f%%\n",
				s.Kind, s.SeqLen, s.Batch, s.Ctx, s.SMs,
				1000*s.Actual, 1000*s.Predicted, 100*s.RelError())
		}
	}
	return 0
}
