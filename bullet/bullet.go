// Package bullet is the public API of this reproduction of "Bullet:
// Boosting GPU Utilization for LLM Serving via Dynamic Spatial-Temporal
// Orchestration" (ASPLOS'26).
//
// A Server wraps one serving system — Bullet itself, one of its ablation
// variants, or a chunked-prefill baseline — running over a simulated GPU
// (see DESIGN.md for the hardware substitution). Feed it a request trace
// and it returns per-request latencies and aggregate serving metrics:
//
//	srv, err := bullet.New(bullet.Config{System: "bullet", Dataset: "sharegpt"})
//	trace, err := bullet.GenerateTrace("sharegpt", 10 /*req/s*/, 500, 42)
//	result, err := srv.Run(trace)
//	fmt.Println(result.MeanTTFT, result.Throughput, result.SLOAttainment)
package bullet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/units"
	"repro/internal/workload"
)

// Systems lists the serving systems a Server can run, in the paper's
// evaluation order: Bullet, the chunked-prefill baselines, and NanoFlow.
// Ablation variants ("bullet-naive", "bullet-partition",
// "bullet-scheduler") and static splits ("bullet-sm84") are also
// accepted.
func Systems() []string {
	return append([]string(nil), experiments.SystemNames...)
}

// Datasets lists the built-in workload generators.
func Datasets() []string {
	out := make([]string, len(workload.Datasets))
	for i, d := range workload.Datasets {
		out[i] = d.Name
	}
	return out
}

// Models lists the built-in model presets.
func Models() []string {
	presets := model.Presets()
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Config selects what to serve and on what.
type Config struct {
	// System is the serving system name; default "bullet".
	System string
	// Model is the model preset; default "llama-3.1-8b".
	Model string
	// Dataset picks the SLO targets (Table 2); default "sharegpt".
	Dataset string
	// TPDegree shards the model across this many GPUs with Megatron
	// tensor parallelism (0/1 = single GPU). Ranks are symmetric, so
	// the simulation models rank 0.
	TPDegree int
	// Backend selects the per-kernel latency model for Bullet variants:
	// "" or "analytic" (default), "sampled" (profile-driven draws from a
	// self-calibrated table), or "hierarchy" (analytic plus L2
	// cache-reuse interference). See DESIGN.md §15. Baselines have no
	// pluggable latency model, so a non-default Backend on a baseline
	// system is a configuration error.
	Backend string
	// BackendSeed seeds the sampled backend's deterministic draw stream
	// (0 means 1).
	BackendSeed int64
}

// Request is one serving request.
type Request struct {
	ID           string
	Arrival      float64 // seconds since trace start
	InputTokens  int
	OutputTokens int
}

// RequestMetrics is one completed request's latencies.
type RequestMetrics struct {
	ID         string
	TTFT       float64 // seconds, queueing included
	NormTTFTMs float64 // ms per input token
	TPOTMs     float64
	E2E        float64
	QueueDelay float64
	MetSLO     bool
}

// Result aggregates a serving run.
type Result struct {
	System        string
	Requests      int
	MeanTTFT      float64
	P90TTFT       float64
	P90NormTTFT   float64
	MeanTPOTMs    float64
	P90TPOTMs     float64
	Throughput    float64 // requests/second
	TokenThru     float64 // output tokens/second
	SLOAttainment float64
	Makespan      float64
	PerRequest    []RequestMetrics
}

// Server runs one system configuration. Each Run builds a fresh
// deployment, so a Server is reusable and runs are independent.
type Server struct {
	spec experiments.Spec
}

// New validates a configuration and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.System == "" {
		cfg.System = "bullet"
	}
	if cfg.Model == "" {
		cfg.Model = "llama-3.1-8b"
	}
	if cfg.Dataset == "" {
		cfg.Dataset = "sharegpt"
	}
	mc, ok := model.Presets()[cfg.Model]
	if !ok {
		return nil, fmt.Errorf("bullet: unknown model %q (have %v)", cfg.Model, Models())
	}
	if cfg.TPDegree > 1 {
		mc = mc.TP(cfg.TPDegree)
		if err := mc.Validate(); err != nil {
			return nil, fmt.Errorf("bullet: %w", err)
		}
	}
	d, err := workload.ByName(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("bullet: unknown dataset %q (have %v)", cfg.Dataset, Datasets())
	}
	s := &Server{spec: experiments.Spec{System: cfg.System, Dataset: d, Model: mc,
		Backend: cfg.Backend, BackendSeed: cfg.BackendSeed}}
	// Validate system and backend eagerly by building a throwaway deployment.
	if _, err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// build makes a fresh deployment of the server's spec. A panic in the
// layers below becomes an error here, at the API boundary.
func (s *Server) build() (d *experiments.Deployment, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bullet: %v", r)
		}
	}()
	if d, err = experiments.Build(s.spec); err != nil {
		return nil, fmt.Errorf("bullet: %w", err)
	}
	return d, nil
}

// GenerateTrace produces a Poisson trace from a built-in dataset.
func GenerateTrace(dataset string, rate float64, n int, seed int64) ([]Request, error) {
	d, err := workload.ByName(dataset)
	if err != nil {
		return nil, err
	}
	if !(rate > 0) || math.IsInf(rate, 1) || n <= 0 {
		return nil, fmt.Errorf("bullet: invalid trace rate=%v n=%d (rate must be finite and > 0, n > 0)", rate, n)
	}
	tr := workload.Generate(d, rate, n, seed)
	out := make([]Request, len(tr.Requests))
	for i, r := range tr.Requests {
		out[i] = Request{ID: r.ID, Arrival: r.Arrival.Float(), InputTokens: r.InputTokens, OutputTokens: r.OutputTokens}
	}
	return out, nil
}

// Compare runs several systems on the same trace and returns results
// keyed by system name — the apples-to-apples comparison behind Fig. 11.
func Compare(systems []string, dataset string, trace []Request) (map[string]Result, error) {
	out := make(map[string]Result, len(systems))
	for _, sys := range systems {
		srv, err := New(Config{System: sys, Dataset: dataset})
		if err != nil {
			return nil, err
		}
		res, err := srv.Run(trace)
		if err != nil {
			return nil, fmt.Errorf("bullet: system %s: %w", sys, err)
		}
		out[sys] = res
	}
	return out, nil
}

// Run serves a trace to completion and returns the metrics. Requests must
// arrive in nondecreasing order with positive token counts, and each must
// fit the KV pool on its own.
func (s *Server) Run(reqs []Request) (Result, error) {
	if len(reqs) == 0 {
		return Result{}, fmt.Errorf("bullet: empty trace")
	}
	d, err := s.build()
	if err != nil {
		return Result{}, err
	}
	capacity := d.Env.KV.TotalTokens()
	dataset := s.spec.Dataset.Name
	prev := 0.0
	wl := &workload.Trace{Dataset: dataset, Rate: 1}
	for i, r := range reqs {
		if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) {
			return Result{}, fmt.Errorf("bullet: request %d has non-finite arrival %v", i, r.Arrival)
		}
		if r.Arrival < prev {
			return Result{}, fmt.Errorf("bullet: request %d arrives at %v before %v", i, r.Arrival, prev)
		}
		if r.InputTokens <= 0 || r.OutputTokens <= 0 {
			return Result{}, fmt.Errorf("bullet: request %d has non-positive tokens", i)
		}
		if r.InputTokens > capacity-r.OutputTokens {
			return Result{}, fmt.Errorf("bullet: request %d needs %d+%d KV tokens, more than the %d-token pool",
				i, r.InputTokens, r.OutputTokens, capacity)
		}
		prev = r.Arrival
		id := r.ID
		if id == "" {
			id = fmt.Sprintf("req-%d", i)
		}
		wl.Requests = append(wl.Requests, workload.Request{
			ID: id, Arrival: units.Seconds(r.Arrival), InputTokens: r.InputTokens,
			OutputTokens: r.OutputTokens, Dataset: dataset,
		})
	}
	if n := len(reqs); n > 1 {
		wl.Rate = float64(n) / (reqs[n-1].Arrival + 1e-9)
	}
	return convert(d.Run(wl), d.Env.SLO), nil
}

func convert(res serving.Result, slo metrics.SLO) Result {
	out := Result{
		System:        res.System,
		Requests:      res.Summary.Requests,
		MeanTTFT:      res.Summary.MeanTTFT.Float(),
		P90TTFT:       res.Summary.P90TTFT.Float(),
		P90NormTTFT:   res.Summary.P90NormTTFT,
		MeanTPOTMs:    res.Summary.MeanTPOTMs,
		P90TPOTMs:     res.Summary.P90TPOTMs,
		Throughput:    res.Summary.Throughput,
		TokenThru:     res.Summary.TokenThroughput,
		SLOAttainment: res.Summary.SLOAttainment,
		Makespan:      res.Makespan.Float(),
	}
	for _, r := range res.Requests {
		out.PerRequest = append(out.PerRequest, RequestMetrics{
			ID:         r.ID,
			TTFT:       r.TTFT().Float(),
			NormTTFTMs: r.NormTTFTMs(),
			TPOTMs:     r.TPOTMs(),
			E2E:        r.E2E().Float(),
			QueueDelay: r.QueueDelay().Float(),
			MetSLO:     r.MeetsSLO(slo),
		})
	}
	return out
}
