// Package chunked implements the chunked-prefill hybrid-batch serving
// engines Bullet is evaluated against (§2.3, §4.1): SARATHI-style token
// budgets as deployed in vLLM V1 and SGLang.
//
// Each iteration fills a fixed token budget with all active decode
// requests first and then as many prefill tokens as fit; longer prompts
// are split into chunks across iterations, forcing attention to re-read
// every earlier chunk's KV cache (the N(N+1)/2 reload effect). The whole
// hybrid batch executes in lockstep on the full GPU, which is precisely
// the throughput-latency coupling Bullet removes.
package chunked

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// Scheme configures one chunked-prefill variant.
type Scheme struct {
	// Name identifies the variant ("vllm-1024", "sglang-2048", ...).
	Name string
	// ChunkSize is the per-iteration token budget.
	ChunkSize int
	// MaxBatch caps concurrent decode requests.
	MaxBatch int
	// PackPrefills lets one iteration chunk several queued prompts
	// (SGLang packs; our vLLM configuration chunks one prompt at a
	// time).
	PackPrefills bool
	// IterOverhead is the CPU scheduling cost per iteration.
	IterOverhead sim.Time
}

// VLLM1024 approximates vLLM V1 with a 1024-token budget. The heavier
// per-iteration CPU path (no packed prefills, ~3 ms Python scheduling per
// hybrid iteration) reflects the slower TTFT tails the paper measures.
func VLLM1024() Scheme {
	return Scheme{Name: "vllm-1024", ChunkSize: 1024, MaxBatch: 256, PackPrefills: false, IterOverhead: 3e-3}
}

// SGLang1024 approximates SGLang v0.3 with a 1024-token budget.
func SGLang1024() Scheme {
	return Scheme{Name: "sglang-1024", ChunkSize: 1024, MaxBatch: 256, PackPrefills: true, IterOverhead: 1.5e-3}
}

// SGLang2048 approximates SGLang v0.3 with a 2048-token budget.
func SGLang2048() Scheme {
	return Scheme{Name: "sglang-2048", ChunkSize: 2048, MaxBatch: 256, PackPrefills: true, IterOverhead: 1.5e-3}
}

// req tracks one request through chunked prefill and decode.
type req struct {
	w            workload.Request
	seq          *kvcache.Sequence
	prefillStart sim.Time
	firstToken   sim.Time
	generated    int
	prefilled    int // prompt tokens processed so far
	admitted     bool
}

// Engine is a chunked-prefill serving engine; it implements
// serving.System.
type Engine struct {
	env    *serving.Env
	scheme Scheme
	stream *gpusim.Stream

	waiting []*req // FCFS; head may be mid-prefill
	decode  []*req
	active  bool

	iterations int
	// TL, when non-nil, records each iteration's budget composition as a
	// hybrid/batch counter (the Fig. 12(b) view).
	TL *timeline.Recorder
}

// New creates a chunked-prefill engine on an environment.
func New(env *serving.Env, scheme Scheme) *Engine {
	if scheme.ChunkSize <= 0 || scheme.MaxBatch <= 0 {
		panic(fmt.Sprintf("chunked: invalid scheme %+v", scheme))
	}
	return &Engine{env: env, scheme: scheme, stream: env.GPU.NewStream(env.GPU.FullMask())}
}

// Name implements serving.System.
func (e *Engine) Name() string { return e.scheme.Name }

// Iterations returns the number of hybrid batches executed.
func (e *Engine) Iterations() int { return e.iterations }

// Submit implements serving.System.
func (e *Engine) Submit(r workload.Request) {
	e.waiting = append(e.waiting, &req{w: r})
	if !e.active {
		e.active = true
		e.cycle()
	}
}

// admit reserves KV (input + output, so decode never preempts) for queued
// requests about to enter prefill.
func (e *Engine) admit(r *req) bool {
	if r.admitted {
		return true
	}
	need := r.w.InputTokens + r.w.OutputTokens
	if !e.env.KV.CanAllocate(need) {
		return false
	}
	seq, err := e.env.KV.Allocate(r.w.ID, need, e.scheme.Name)
	if err != nil {
		return false
	}
	r.seq = seq
	r.admitted = true
	r.prefillStart = e.env.Sim.Now()
	return true
}

// cycle executes one hybrid-batch iteration.
func (e *Engine) cycle() {
	if len(e.decode) == 0 && len(e.waiting) == 0 {
		e.active = false
		return
	}

	// Fill the budget: decode tokens first (§2.3.1), then prefill
	// chunks from the queue head.
	budget := e.scheme.ChunkSize - len(e.decode)
	if budget < 0 {
		budget = 0
	}
	var chunkReqs []*req
	var chunkLens, histLens []int
	chunkTotal := 0
	for _, r := range e.waiting {
		if budget == 0 {
			break
		}
		if !e.admit(r) {
			break // KV full: preserve FCFS order, retry next iteration
		}
		take := r.w.InputTokens - r.prefilled
		if take > budget {
			take = budget
		}
		chunkReqs = append(chunkReqs, r)
		chunkLens = append(chunkLens, take)
		histLens = append(histLens, r.prefilled)
		chunkTotal += take
		budget -= take
		if !e.scheme.PackPrefills {
			break
		}
	}

	if len(e.decode) == 0 && len(chunkReqs) == 0 {
		// Queue blocked on KV with nothing decoding would deadlock; it
		// cannot happen because completions retrigger cycles, but fail
		// loudly if the invariant breaks.
		panic(fmt.Sprintf("chunked: %s stalled with %d waiting", e.scheme.Name, len(e.waiting)))
	}

	avgCtx := 0.0
	for _, r := range e.decode {
		avgCtx += float64(r.w.InputTokens + r.generated)
	}
	if len(e.decode) > 0 {
		avgCtx /= float64(len(e.decode))
	}

	e.iterations++
	if e.TL != nil {
		e.TL.Counter("hybrid", "batch", e.env.Sim.Now(),
			timeline.I("decodeTokens", len(e.decode)),
			timeline.I("chunkTokens", chunkTotal),
			timeline.I("waiting", len(e.waiting)-len(chunkReqs)))
	}

	// One lockstep pass over all layers plus the LM head.
	for l := 0; l < e.env.Model.NumLayers; l++ {
		for _, k := range e.env.Model.HybridLayerKernels(chunkLens, histLens, len(e.decode), units.Tokens(avgCtx), "hybrid") {
			e.env.GPU.Launch(e.stream, k, nil)
		}
	}
	headRows := len(e.decode)
	for i, r := range chunkReqs {
		if r.prefilled+chunkLens[i] >= r.w.InputTokens {
			headRows++
		}
	}
	if headRows > 0 {
		e.env.GPU.Launch(e.stream, e.env.Model.LMHeadKernel(headRows, "hybrid"), nil)
	}

	e.env.GPU.Synchronize(e.stream, func() {
		now := e.env.Sim.Now()
		// Advance decodes.
		kept := e.decode[:0]
		for _, r := range e.decode {
			r.generated++
			if r.generated >= r.w.OutputTokens {
				e.finish(r, now)
				continue
			}
			kept = append(kept, r)
		}
		e.decode = kept
		// Advance prefills.
		for i, r := range chunkReqs {
			r.prefilled += chunkLens[i]
			if r.prefilled < r.w.InputTokens {
				continue
			}
			// Prefill complete: first token out.
			r.firstToken = now
			r.generated = 1
			e.dequeue(r)
			if r.generated >= r.w.OutputTokens {
				e.finish(r, now)
			} else {
				e.decode = append(e.decode, r)
			}
		}
		e.env.Sim.PostAfter(e.scheme.IterOverhead, e.cycle)
	})
}

func (e *Engine) dequeue(r *req) {
	for i, w := range e.waiting {
		if w == r {
			e.waiting = append(e.waiting[:i], e.waiting[i+1:]...)
			return
		}
	}
	panic("chunked: request not in waiting queue")
}

func (e *Engine) finish(r *req, now sim.Time) {
	r.generated = r.w.OutputTokens
	e.env.KV.MustFree(r.seq)
	e.env.Complete(metrics.Request{
		ID:           r.w.ID,
		Dataset:      r.w.Dataset,
		Arrival:      r.w.Arrival,
		PrefillStart: r.prefillStart,
		FirstToken:   r.firstToken,
		Finish:       now,
		InputTokens:  r.w.InputTokens,
		OutputTokens: r.w.OutputTokens,
	})
}
