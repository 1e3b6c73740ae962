// Package chunked implements the chunked-prefill hybrid-batch serving
// engines Bullet is evaluated against (§2.3, §2.4, §4.1): SARATHI-style
// token budgets as deployed in vLLM V1 and SGLang, and NanoFlow.
//
// Each iteration fills a fixed token budget with all active decode
// requests first and then as many prefill tokens as fit; longer prompts
// are split into chunks across iterations, forcing attention to re-read
// every earlier chunk's KV cache (the N(N+1)/2 reload effect). The whole
// hybrid batch executes in lockstep on the full GPU, which is precisely
// the throughput-latency coupling Bullet removes.
//
// NanoFlow (Zhu et al., 2024; Fig. 3b) splits hybrid batches into
// nano-batches whose compute-bound, memory-bound and network operators
// overlap through a tuned static pipeline of resized kernels and CUDA
// streams. We model the effect of that pipeline rather than its
// mechanism: with a PipelineEfficiency set, each hybrid layer executes
// as a single fluid kernel carrying the layer's total FLOPs and bytes,
// so the simulator overlaps the layer's GEMM compute with its
// attention/KV traffic perfectly — the best case of NanoFlow's
// intra-device parallelism. The paper's critique survives: as chunked
// attention re-reads ever more KV cache, the memory term grows past the
// compute term and the overlap benefit vanishes, while the token budget,
// KV reloads and lockstep scheduling of chunked prefill all remain.
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
	// ChunkSize is the per-iteration token budget; it also bounds the
	// decode batch, whose tokens fill the budget first.
	ChunkSize int
	// PackPrefills lets one iteration chunk several queued prompts
	// (SGLang packs; our vLLM configuration chunks one prompt at a
	// time).
	PackPrefills bool
	// IterOverhead is the CPU scheduling cost per iteration.
	IterOverhead sim.Time
	// PipelineEfficiency selects how a hybrid layer executes. Zero
	// launches the layer's kernels one by one; a value in (0, 1] fuses
	// them into one fluid kernel (NanoFlow's overlap), discounted by
	// this factor because a static nano-batch pipeline cannot keep both
	// units perfectly busy at phase boundaries.
	PipelineEfficiency float64
}

// VLLM1024 approximates vLLM V1 with a 1024-token budget. The heavier
// per-iteration CPU path (no packed prefills, ~3 ms Python scheduling per
// hybrid iteration) reflects the slower TTFT tails the paper measures.
func VLLM1024() Scheme {
	return Scheme{Name: "vllm-1024", ChunkSize: 1024, PackPrefills: false, IterOverhead: 3e-3}
}

// SGLang1024 approximates SGLang v0.3 with a 1024-token budget.
func SGLang1024() Scheme {
	return Scheme{Name: "sglang-1024", ChunkSize: 1024, PackPrefills: true, IterOverhead: 1.5e-3}
}

// SGLang2048 approximates SGLang v0.3 with a 2048-token budget.
func SGLang2048() Scheme {
	return Scheme{Name: "sglang-2048", ChunkSize: 2048, PackPrefills: true, IterOverhead: 1.5e-3}
}

// NanoFlow1024 approximates NanoFlow, the strongest chunked-prefill
// baseline of the evaluation, in the paper's configuration: a 1024-token
// budget with packed prefills and every layer fused at 88% pipeline
// efficiency.
func NanoFlow1024() Scheme {
	return Scheme{Name: "nanoflow-1024", ChunkSize: 1024, PackPrefills: true, IterOverhead: 0.8e-3, PipelineEfficiency: 0.88}
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
	if scheme.ChunkSize <= 0 || !(scheme.PipelineEfficiency >= 0 && scheme.PipelineEfficiency <= 1) {
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
		ks := e.env.Model.HybridLayerKernels(chunkLens, histLens, len(e.decode), units.Tokens(avgCtx), "hybrid")
		if e.scheme.PipelineEfficiency > 0 {
			e.env.GPU.Launch(e.stream, e.fuseLayer(ks), nil)
			continue
		}
		for _, k := range ks {
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

// fuseLayer collapses one hybrid layer's kernels into a single fluid
// kernel: total FLOPs and bytes with a FLOP-weighted efficiency. Each
// constituent kernel's wave-quantization idle (at the full device) stays
// folded into the efficiency — nano-batching overlaps phases, it does not
// repair tail waves.
func (e *Engine) fuseLayer(ks []gpusim.Kernel) gpusim.Kernel {
	M := e.env.GPU.Spec.NumSMs
	var flops, weighted units.FLOPs
	var bytes units.Bytes
	for _, k := range ks {
		eff := k.Efficiency
		if eff == 0 {
			eff = 1
		}
		// NanoFlow resizes kernel grids for its fixed pipeline, which
		// recovers roughly half of the tail-wave idle of stock kernels.
		eff *= 1 - 0.5*gpusim.WaveIdleRatio(k.Grid, M)
		flops += k.FLOPs
		bytes += k.Bytes
		weighted += units.Over(k.FLOPs, eff)
	}
	eff := 1.0
	if weighted > 0 {
		eff = units.Ratio(flops, weighted)
	}
	return gpusim.Kernel{
		Name:       "nano-layer",
		Tag:        "hybrid",
		FLOPs:      flops,
		Bytes:      bytes,
		Efficiency: eff * e.scheme.PipelineEfficiency,
	}
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
