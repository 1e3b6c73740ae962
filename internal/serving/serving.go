// Package serving provides the experiment harness shared by Bullet and
// every baseline: a simulated environment (clock, GPU, model, KV pool,
// SLO) plus a runner that feeds a workload trace into a serving system and
// collects per-request metrics.
package serving

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultKVReserveBytes is HBM held back for activations and runtime
// state when planning the KV pool.
const DefaultKVReserveBytes = 4e9

// DefaultMaxShed bounds how many shed requests the environment stores for
// inspection; excess sheds are counted but dropped (like the timeline's
// event cap, an overload run must not grow memory without bound).
const DefaultMaxShed = 4096

// KVBlockTokens is the PagedAttention block size in tokens.
const KVBlockTokens = 16

// Env bundles the simulated infrastructure one serving system runs on.
type Env struct {
	Sim   *sim.Simulation
	GPU   *gpusim.GPU
	Model model.Config
	KV    *kvcache.Pool
	SLO   metrics.SLO

	// MaxShed caps how many shed requests are retained (for reports and
	// tests); 0 means DefaultMaxShed. Sheds past the cap still count —
	// run completion and Result.Shed use the counter, not the slice.
	MaxShed int

	completed []metrics.Request
	shed      []workload.Request
	shedCount int
	// OnComplete, when set, observes every completion as it happens.
	OnComplete func(metrics.Request)
	// OnShed, when set, observes every shed request as it happens.
	OnShed func(workload.Request)
	// OnDrain, when set, runs from Drain, before the end-of-run KV
	// invariant check — the hook caches (e.g. the prefix cache) use to
	// release long-lived pool allocations, and clusters use to quiesce
	// and drain-check their replicas.
	OnDrain func()
}

// NewEnv builds a fresh environment on its own simulation: one simulated
// device, the model, and a KV pool sized from the device memory budget.
func NewEnv(spec gpusim.Spec, cfg model.Config, dataset string) *Env {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("serving: invalid model config %s: %v", cfg.Name, err))
	}
	s := sim.New()
	gpu := gpusim.New(s, spec)
	blocks := kvcache.PlanBlocks(spec.HBMBytes, cfg.WeightBytes(), DefaultKVReserveBytes,
		cfg.KVBytesPerToken(), KVBlockTokens)
	if blocks <= 0 {
		panic(fmt.Sprintf("serving: model %s does not fit on %s", cfg.Name, spec.Name))
	}
	return &Env{
		Sim:   s,
		GPU:   gpu,
		Model: cfg,
		KV:    kvcache.NewPool(blocks, KVBlockTokens),
		SLO:   metrics.SLOFor(dataset),
	}
}

// Drain closes a run on this environment: the OnDrain hook runs, then the
// KV pool must be consistent and empty. A leak panics naming who. Run
// calls it once every request has resolved; environments a cluster
// drives on private clocks are drained by the cluster.
func (e *Env) Drain(who string) {
	if e.OnDrain != nil {
		e.OnDrain()
	}
	e.KV.CheckInvariants()
	if used := e.KV.UsedBlocks(); used != 0 {
		panic(fmt.Sprintf("serving: %s leaked %d KV blocks", who, used))
	}
}

// Complete records a finished request. Systems must call this exactly once
// per submitted request.
func (e *Env) Complete(r metrics.Request) {
	r.Validate()
	//lint:ignore hotalloc one append per completed request lifetime, not per step; growth is amortized
	e.completed = append(e.completed, r)
	if e.OnComplete != nil {
		e.OnComplete(r)
	}
}

// Completed returns the requests finished so far.
func (e *Env) Completed() []metrics.Request { return e.completed }

// Shed records a request permanently given up on (a resilience path that
// ran out of retries). Shed requests count toward run completion — every
// submitted request must end in exactly one of Complete or Shed — but
// never toward the summary metrics.
func (e *Env) Shed(r workload.Request) {
	e.shedCount++
	limit := e.MaxShed
	if limit <= 0 {
		limit = DefaultMaxShed
	}
	if len(e.shed) < limit {
		//lint:ignore hotalloc one append per shed request lifetime, bounded by MaxShed
		e.shed = append(e.shed, r)
	}
	if e.OnShed != nil {
		e.OnShed(r)
	}
}

// ShedRequests returns the retained shed requests (at most MaxShed; the
// overflow dropped past the cap is ShedCount() − len(ShedRequests())).
func (e *Env) ShedRequests() []workload.Request { return e.shed }

// ShedCount returns how many requests were shed in total, including any
// dropped past the retention cap.
func (e *Env) ShedCount() int { return e.shedCount }

// System is a serving engine under test. Submit is invoked from the
// simulation event loop at each request's arrival time; the system must
// eventually call Env.Complete for it.
type System interface {
	Name() string
	Submit(r workload.Request)
}

// Result is the outcome of one serving run.
type Result struct {
	System   string
	Dataset  string
	Rate     float64
	Summary  metrics.Summary
	Requests []metrics.Request
	GPUStats gpusim.Stats
	// Makespan is the simulated time at which the last request finished.
	Makespan sim.Time
	// Shed counts requests given up on under faults (0 in healthy runs).
	Shed int
}

// maxEventsPerRequest bounds runaway simulations.
const maxEventsPerRequest = 200000

// Run feeds the trace into the system and runs the simulation until every
// request completes. It panics if the event queue drains while requests
// are outstanding (a deadlocked system is always a bug worth failing
// loudly on).
func (e *Env) Run(sys System, trace *workload.Trace) Result {
	for _, r := range trace.Requests {
		r := r
		e.Sim.Post(r.Arrival, func() { sys.Submit(r) })
	}
	budget := uint64(len(trace.Requests)+1) * maxEventsPerRequest
	for uint64(len(e.completed)+e.shedCount) < uint64(len(trace.Requests)) {
		if !e.Sim.Step() {
			panic(fmt.Sprintf("serving: %s deadlocked with %d/%d requests complete (%d shed) at t=%.3f",
				sys.Name(), len(e.completed), len(trace.Requests), e.shedCount, e.Sim.Now()))
		}
		if e.Sim.Processed() > budget {
			panic(fmt.Sprintf("serving: %s exceeded event budget (%d events, %d/%d complete, %d shed)",
				sys.Name(), e.Sim.Processed(), len(e.completed), len(trace.Requests), e.shedCount))
		}
	}
	e.Drain(sys.Name())
	return Result{
		System:   sys.Name(),
		Dataset:  trace.Dataset,
		Rate:     trace.Rate,
		Summary:  metrics.Summarize(e.completed, e.SLO),
		Requests: e.completed,
		GPUStats: e.GPU.Stats(),
		Makespan: e.Sim.Now(),
		Shed:     e.shedCount,
	}
}
