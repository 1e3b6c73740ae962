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

func runOne(req RunRequest) (bullet.Result, error) {
	if req.N <= 0 {
		req.N = 200
	}
	if req.N > maxRequests {
		return bullet.Result{}, fmt.Errorf("n=%d exceeds the %d-request cap", req.N, maxRequests)
	}
	if req.Rate <= 0 {
		req.Rate = 8
	}
	if req.Dataset == "" {
		req.Dataset = "sharegpt"
	}
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
