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
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment id (see -list)")
		quick   = fs.Bool("quick", false, "reduced request counts / sweeps")
		list    = fs.Bool("list", false, "list experiment ids, then exit")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bulletbench: unexpected arguments %q\n", fs.Args())
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
