// Command bulletbench regenerates the paper's tables and figures as text
// tables. Each id is one entry of experiments.Registry (see DESIGN.md §3
// for the experiment index and §6 for the extension studies;
// TestListMatchesDESIGN pins -list to those tables).
//
// Usage:
//
//	bulletbench                 # run everything (the fig11 sweep is large)
//	bulletbench -exp table1
//	bulletbench -exp fig11 -quick
//	bulletbench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id (see -list)")
		quick    = fs.Bool("quick", false, "reduced request counts / sweeps")
		list     = fs.Bool("list", false, "list experiment ids, then exit")
		traceOut = fs.String("trace-out", "", "write a deterministic timeline trace of a representative run, then exit")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" || *memProf != "" {
		stop, err := prof.Start(*cpuProf, *memProf)
		if err != nil {
			fmt.Fprintln(stderr, "bulletbench:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "bulletbench:", err)
			}
		}()
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, *quick, stdout); err != nil {
			fmt.Fprintln(stderr, "bulletbench:", err)
			return 1
		}
		return 0
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:", strings.Join(experiments.IDs(), ", "))
		return 0
	}

	todo := experiments.Registry
	if *exp != "all" {
		todo = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(stderr, "bulletbench: unknown experiment %q (have %s)\n", id, strings.Join(experiments.IDs(), ", "))
				return 1
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		p := e.Full
		if *quick {
			p = e.Quick
		}
		p.Clock = wallClock
		fmt.Fprintf(stdout, "===== %s =====\n", e.ID)
		fmt.Fprintln(stdout, e.Run(p))
	}
	return 0
}

// wallClock reads the host clock in seconds for Table 3's
// microbenchmarks; internal/ may not, by the determinism contract.
func wallClock() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// writeTrace records the benchmark suite's representative scenario
// (bullet on azure-code at 4 req/s, seed 42 — the workload most tables
// share) with the timeline recorder attached and writes the
// deterministic Chrome trace-event file.
func writeTrace(path string, quick bool, stdout io.Writer) error {
	n := 300
	if quick {
		n = 100
	}
	res, rec := experiments.RunOneTraced("bullet", workload.AzureCode, 4, n, 42, 0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.WriteChrome(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bullet on azure-code @ 4 req/s: %d requests, %.1fs makespan\n",
		res.Summary.Requests, res.Makespan.Float())
	fmt.Fprint(stdout, rec.Summary())
	fmt.Fprintf(stdout, "wrote %s (open at ui.perfetto.dev)\n", path)
	return nil
}
