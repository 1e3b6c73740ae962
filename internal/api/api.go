// Package api exposes the reproduction over HTTP: submit serving
// experiments and retrieve results as JSON. It lets non-Go tooling
// (notebooks, dashboards) drive the simulator.
//
// Endpoints:
//
//	GET  /v1/systems            list runnable systems
//	GET  /v1/datasets           list workload generators
//	POST /v1/run                run one experiment {system,dataset,rate,n,seed}
//	POST /v1/compare            run several systems on one trace
//	GET  /healthz               liveness
package api

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"

	"repro/bullet"
)

// RunRequest is the POST /v1/run payload.
type RunRequest struct {
	System  string  `json:"system"`
	Dataset string  `json:"dataset"`
	Rate    float64 `json:"rate"`
	N       int     `json:"n"`
	Seed    int64   `json:"seed"`
	// IncludePerRequest adds per-request latencies to the response.
	IncludePerRequest bool `json:"includePerRequest"`
}

// CompareRequest is the POST /v1/compare payload.
type CompareRequest struct {
	Systems []string `json:"systems"`
	Dataset string   `json:"dataset"`
	Rate    float64  `json:"rate"`
	N       int      `json:"n"`
	Seed    int64    `json:"seed"`
}

// maxRequests bounds a single API-run trace.
const maxRequests = 5000

// Handler returns the API's http.Handler.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/systems", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"systems": bullet.Systems()})
	})
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"datasets": bullet.Datasets()})
	})
	mux.HandleFunc("POST /v1/run", handleRun)
	mux.HandleFunc("POST /v1/compare", handleCompare)
	return mux
}

func handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return
	}
	if err := resolveLoad(&req.Dataset, &req.Rate, &req.N); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := runOne(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if !req.IncludePerRequest {
		res.PerRequest = nil
	}
	writeJSON(w, http.StatusOK, res)
}

func handleCompare(w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return
	}
	if len(req.Systems) == 0 {
		req.Systems = bullet.Systems()
	}
	if len(req.Systems) > 16 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("too many systems (%d > 16)", len(req.Systems)))
		return
	}
	if err := resolveLoad(&req.Dataset, &req.Rate, &req.N); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := make(map[string]*bullet.Result, len(req.Systems))
	for _, sys := range req.Systems {
		res, err := runOne(RunRequest{
			System: sys, Dataset: req.Dataset, Rate: req.Rate, N: req.N, Seed: req.Seed,
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("system %s: %w", sys, err))
			return
		}
		res.PerRequest = nil
		out[sys] = &res
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": req.Dataset, "rate": req.Rate, "n": req.N, "results": out,
	})
}

// resolveLoad gives a zero or absent dataset, rate and n their defaults
// (sharegpt, 8 req/s, 200 requests) and rejects a negative rate or n and
// an n over the cap, once, before any run, so a response reports the
// values that ran.
func resolveLoad(dataset *string, rate *float64, n *int) error {
	switch {
	case *rate < 0:
		return fmt.Errorf("rate must be >= 0 (0 means the default), got %v", *rate)
	case *n < 0:
		return fmt.Errorf("n must be >= 0 (0 means the default), got %d", *n)
	case *n > maxRequests:
		return fmt.Errorf("n=%d exceeds the %d-request cap", *n, maxRequests)
	}
	if *dataset == "" {
		*dataset = "sharegpt"
	}
	if *rate == 0 {
		*rate = 8
	}
	if *n == 0 {
		*n = 200
	}
	return nil
}

// runOne runs one system on a load resolveLoad has already resolved.
func runOne(req RunRequest) (bullet.Result, error) {
	srv, err := bullet.New(bullet.Config{System: req.System, Dataset: req.Dataset})
	if err != nil {
		return bullet.Result{}, err
	}
	trace, err := bullet.GenerateTrace(req.Dataset, req.Rate, req.N, req.Seed)
	if err != nil {
		return bullet.Result{}, err
	}
	return srv.Run(trace)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("api: encoding response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
