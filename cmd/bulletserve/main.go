// Command bulletserve exposes the reproduction over HTTP so external
// tooling (notebooks, dashboards) can drive experiments:
//
//	bulletserve -addr :8080
//	curl localhost:8080/v1/systems
//	curl -X POST localhost:8080/v1/run \
//	     -d '{"system":"bullet","dataset":"azure-code","rate":5,"n":200}'
//	curl -X POST localhost:8080/v1/compare \
//	     -d '{"dataset":"sharegpt","rate":16,"n":200}'
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/api"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable entry point: it parses args and serves until the
// server fails, which it reports with exit 1. Bad arguments exit 2
// before anything listens.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bulletserve: unexpected arguments %q\n", fs.Args())
		return 2
	}

	// The api package's handler is pure and stateless; each request
	// runs its own deterministic simulation.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	logger := log.New(stderr, "", log.LstdFlags)
	logger.Printf("bulletserve listening on %s", *addr)
	logger.Printf("bulletserve: server exited: %v", srv.ListenAndServe())
	return 1
}
