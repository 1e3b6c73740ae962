// Package disagg implements a prefill/decode disaggregation baseline in
// the style of DistServe/Splitwise (§5, Related Works): the two phases
// run on *separate physical GPUs*, eliminating interference entirely at
// the cost of a second device and of migrating each request's KV cache
// across the interconnect.
//
// The paper positions Bullet as orthogonal to disaggregation (single-GPU
// deployments, and the transitional mixed instances disaggregated systems
// need); this engine exists to quantify that comparison: disaggregation
// buys clean latency isolation but pays KV-migration latency and halves
// per-GPU throughput, while Bullet reaches a similar operating point on
// one device.
package disagg

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config shapes the disaggregated pair.
type Config struct {
	// LinkBandwidth is the KV migration path (NVLink ~300 GB/s;
	// PCIe 4.0 x16 ~25 GB/s — the paper notes disaggregation demands
	// high-bandwidth interconnects).
	LinkBandwidth units.BytesPerSec
	// LinkLatency is the per-migration fixed cost (handshake, launch).
	LinkLatency sim.Time
	// MaxBatch bounds the decode batch on the decode GPU.
	MaxBatch int
}

const (
	// maxPrefillTokens / maxPrefillReqs bound one prefill batch on the
	// prefill GPU.
	maxPrefillTokens = 16384
	maxPrefillReqs   = 8
	// cycleOverhead is the per-iteration CPU cost on each instance.
	cycleOverhead sim.Time = 150e-6
)

// DefaultConfig uses an NVLink-class interconnect.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth: 300e9,
		LinkLatency:   50e-6,
		MaxBatch:      256,
	}
}

// PCIeConfig uses a commodity PCIe interconnect, the regime where the
// paper argues disaggregation struggles.
func PCIeConfig() Config {
	c := DefaultConfig()
	c.LinkBandwidth = 25e9
	c.LinkLatency = 200e-6
	return c
}

type req struct {
	w            workload.Request
	prefillSeq   *kvcache.Sequence // on the prefill GPU
	decodeSeq    *kvcache.Sequence // on the decode GPU
	prefillStart sim.Time
	firstToken   sim.Time
	generated    int
}

// Engine implements serving.System over two simulated GPUs. The
// environment's GPU and KV pool serve the decode side; the engine creates
// the prefill device and its pool internally on the same simulation.
type Engine struct {
	env *serving.Env
	cfg Config

	prefillGPU *gpusim.GPU
	prefillKV  *kvcache.Pool
	pStream    *gpusim.Stream
	dStream    *gpusim.Stream

	waiting     []*req
	prefillRun  bool
	migrating   []*req // waiting for decode-side KV
	decode      []*req
	pending     []*req
	decodeRun   bool
	migrations  int
	linkBusyTil sim.Time

	// layer is the scratch list a prefill batch or a decode step builds
	// its layer into, from the seqLens/histLens scratch; each cycle
	// launches or aggregates it before returning.
	layer             []gpusim.Kernel
	seqLens, histLens []int
}

// New creates a disaggregated engine pair.
func New(env *serving.Env, cfg Config) *Engine {
	if cfg.LinkBandwidth <= 0 || cfg.MaxBatch <= 0 {
		panic(fmt.Sprintf("disagg: invalid config %+v", cfg))
	}
	pGPU := gpusim.New(env.Sim, env.GPU.Spec)
	blocks := env.KV.TotalBlocks()
	e := &Engine{
		env:        env,
		cfg:        cfg,
		prefillGPU: pGPU,
		prefillKV:  kvcache.NewPool(blocks, env.KV.BlockTokens()),
		pStream:    pGPU.NewStream(pGPU.FullMask()),
		dStream:    env.GPU.NewStream(env.GPU.FullMask()),
	}
	return e
}

// Name implements serving.System.
func (e *Engine) Name() string { return "disagg-2gpu" }

// Migrations returns the number of KV cache transfers performed.
func (e *Engine) Migrations() int { return e.migrations }

// PrefillKVUsed exposes the prefill-side pool occupancy for invariant
// checks.
func (e *Engine) PrefillKVUsed() int { return e.prefillKV.UsedBlocks() }

// Submit implements serving.System.
func (e *Engine) Submit(r workload.Request) {
	e.waiting = append(e.waiting, &req{w: r})
	if !e.prefillRun {
		e.prefillRun = true
		e.env.Sim.PostAfter(0, e.prefillCycle)
	}
}

// prefillCycle runs one whole-sequence prefill batch on the prefill GPU.
func (e *Engine) prefillCycle() {
	if len(e.waiting) == 0 {
		e.prefillRun = false
		return
	}
	now := e.env.Sim.Now()
	var batch []*req
	tokens := 0
	for len(e.waiting) > 0 && len(batch) < maxPrefillReqs {
		r := e.waiting[0]
		if len(batch) > 0 && tokens+r.w.InputTokens > maxPrefillTokens {
			break
		}
		// Prefill-side KV holds only the input until migration.
		seq, err := e.prefillKV.Allocate(r.w.ID+"/p", r.w.InputTokens, "disagg-prefill")
		if err != nil {
			break
		}
		r.prefillSeq = seq
		r.prefillStart = now
		batch = append(batch, r)
		tokens += r.w.InputTokens
		e.waiting = e.waiting[1:]
	}
	if len(batch) == 0 {
		// Prefill pool exhausted: retry after migrations drain it.
		e.prefillRun = false
		return
	}
	e.seqLens, e.histLens = e.seqLens[:0], e.histLens[:0]
	for _, r := range batch {
		e.seqLens = append(e.seqLens, r.w.InputTokens)
		e.histLens = append(e.histLens, 0)
	}
	e.layer = e.env.Model.AppendLayerKernels(e.layer[:0], e.seqLens, e.histLens, 0, 0, "prefill")
	for l := 0; l < e.env.Model.NumLayers; l++ {
		for _, k := range e.layer {
			e.prefillGPU.Launch(e.pStream, k, nil)
		}
	}
	e.prefillGPU.Launch(e.pStream, e.env.Model.LMHeadKernel(len(batch), "prefill"), nil)
	e.prefillGPU.Synchronize(e.pStream, func() {
		done := e.env.Sim.Now()
		for _, r := range batch {
			r.firstToken = done
			r.generated = 1
			e.startMigration(r)
		}
		e.env.Sim.PostAfter(cycleOverhead, e.prefillCycle)
	})
}

// startMigration ships a request's KV cache across the interconnect. The
// link is serialized: transfers queue behind each other.
func (e *Engine) startMigration(r *req) {
	if r.generated >= r.w.OutputTokens {
		// Single-token request: nothing to decode; complete directly.
		e.prefillKV.MustFree(r.prefillSeq)
		r.prefillSeq = nil
		e.complete(r, r.firstToken)
		e.kickPrefill()
		return
	}
	now := e.env.Sim.Now()
	kvBytes := units.Scale(e.env.Model.KVBytesPerToken(), float64(r.w.InputTokens))
	start := now
	if e.linkBusyTil > start {
		start = e.linkBusyTil
	}
	finish := start + e.cfg.LinkLatency + kvBytes.Div(e.cfg.LinkBandwidth)
	e.linkBusyTil = finish
	e.migrations++
	e.env.Sim.Post(finish, func() {
		e.prefillKV.MustFree(r.prefillSeq)
		r.prefillSeq = nil
		e.migrating = append(e.migrating, r)
		e.admitMigrated()
		e.kickPrefill()
	})
}

// kickPrefill restarts the prefill loop if it stalled on pool pressure.
func (e *Engine) kickPrefill() {
	if !e.prefillRun && len(e.waiting) > 0 {
		e.prefillRun = true
		e.env.Sim.PostAfter(0, e.prefillCycle)
	}
}

// admitMigrated moves migrated requests into the decode batch as
// decode-side KV allows.
func (e *Engine) admitMigrated() {
	kept := e.migrating[:0]
	for _, r := range e.migrating {
		need := r.w.InputTokens + r.w.OutputTokens
		seq, err := e.env.KV.Allocate(r.w.ID+"/d", need, "disagg-decode")
		if err != nil {
			kept = append(kept, r)
			continue
		}
		r.decodeSeq = seq
		e.pending = append(e.pending, r)
	}
	e.migrating = kept
	if len(e.pending) > 0 && !e.decodeRun {
		e.decodeRun = true
		e.env.Sim.PostAfter(0, e.decodeCycle)
	}
}

// decodeCycle runs one decode iteration on the decode GPU.
func (e *Engine) decodeCycle() {
	for len(e.pending) > 0 && len(e.decode) < e.cfg.MaxBatch {
		e.decode = append(e.decode, e.pending[0])
		e.pending = e.pending[1:]
	}
	if len(e.decode) == 0 {
		e.decodeRun = false
		return
	}
	bs := len(e.decode)
	ctx := 0
	for _, r := range e.decode {
		ctx += r.w.InputTokens + r.generated
	}
	avgCtx := float64(ctx) / float64(bs)
	step, layer := e.env.Model.DecodeStepKernelScratch(e.layer, bs, units.Tokens(avgCtx), "decode")
	e.layer = layer
	e.env.GPU.Launch(e.dStream, step, func(gpusim.KernelRecord) {
		now := e.env.Sim.Now()
		kept := e.decode[:0]
		freed := false
		for _, r := range e.decode {
			r.generated++
			if r.generated >= r.w.OutputTokens {
				e.env.KV.MustFree(r.decodeSeq)
				r.decodeSeq = nil
				freed = true
				e.complete(r, now)
				continue
			}
			kept = append(kept, r)
		}
		e.decode = kept
		if freed {
			e.admitMigrated()
		}
		e.env.Sim.PostAfter(cycleOverhead, e.decodeCycle)
	})
}

func (e *Engine) complete(r *req, now sim.Time) {
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
