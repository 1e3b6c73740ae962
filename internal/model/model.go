// Package model describes transformer LLMs as arithmetic: for a given
// architecture it derives, per operator, the FLOPs, DRAM bytes and kernel
// grid sizes of prefill chunks and decode steps. These kernel inventories
// drive the GPU simulator and the performance estimator.
//
// The operator decomposition follows §2.1 of the paper: QKV projection,
// self-attention (FlashAttention-style for prefill, paged for decode),
// output projection and the gated MLP, with element-wise kernels (norms,
// residuals, RoPE, activation) in between.
package model

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/units"
)

// Tile sizes used to derive GEMM grids. They reproduce the wave
// quantization idle ratios of Table 1 (see DESIGN.md §8): cuBLAS-style
// 128×256 tiles for the wide projections, 128×128 for the down
// projection, and a 128-row block for FlashAttention.
const (
	gemmTileM     = 128
	wideTileN     = 256
	downTileN     = 128
	flashRowBlock = 128
)

// Achievable-efficiency constants (fraction of device peak), matching the
// kernel-level analysis in §2.2.3: dense GEMMs sustain ~92% of peak,
// attention kernels much less, and paged decode attention wastes DRAM
// traffic on irregular block gathers.
const (
	gemmEfficiency        = 0.92
	prefillAttnEfficiency = 0.60
	decodeAttnEfficiency  = 0.55
	pagedTrafficInflation = 1.25
	elementwiseBWFactor   = 6 // bytes moved per element per fused norm/rope kernel
)

// Config is a dense decoder-only transformer architecture.
type Config struct {
	Name             string
	HiddenSize       int // h
	NumLayers        int
	NumHeads         int // query heads
	NumKVHeads       int // GQA key/value heads
	HeadDim          int
	IntermediateSize int // MLP width i
	VocabSize        int
	BytesPerParam    int // 2 for FP16/BF16
	// TPDegree shards the model Megatron-style across this many GPUs
	// (0 or 1 = no tensor parallelism). Kernel builders then emit one
	// rank's per-layer work — column-parallel QKV/gate-up, head-split
	// attention, row-parallel OProj/down — plus the two per-layer
	// allreduces over the interconnect. Ranks are symmetric, so
	// simulating rank 0 models the whole group.
	TPDegree int
}

// TP returns a copy of the config sharded across n GPUs.
func (c Config) TP(n int) Config {
	c.TPDegree = n
	if n > 1 {
		c.Name = fmt.Sprintf("%s-tp%d", c.Name, n)
	}
	return c
}

// tp returns the tensor-parallel degree as a float (≥1).
func (c Config) tp() float64 {
	if c.TPDegree > 1 {
		return float64(c.TPDegree)
	}
	return 1
}

// allReduceKernel models one ring allreduce of rows×hidden activations:
// 2(n-1)/n of the payload crosses the link; the payload passes through
// HBM on both sides.
func (c Config) allReduceKernel(rows int, tag string) gpusim.Kernel {
	n := c.tp()
	payload := float64(rows) * float64(c.HiddenSize) * float64(c.BytesPerParam)
	return gpusim.Kernel{
		Name:      "allreduce",
		Tag:       tag,
		Tokens:    rows,
		Bytes:     units.Bytes(2 * payload),
		CommBytes: units.Bytes(2 * (n - 1) / n * payload),
	}
}

// Llama31_8B returns the paper's evaluation model, Llama-3.1-8B.
func Llama31_8B() Config {
	return Config{
		Name:             "llama-3.1-8b",
		HiddenSize:       4096,
		NumLayers:        32,
		NumHeads:         32,
		NumKVHeads:       8,
		HeadDim:          128,
		IntermediateSize: 14336,
		VocabSize:        128256,
		BytesPerParam:    2,
	}
}

// Qwen2_7B returns an alternative mid-size model for cross-checks.
func Qwen2_7B() Config {
	return Config{
		Name:             "qwen2-7b",
		HiddenSize:       3584,
		NumLayers:        28,
		NumHeads:         28,
		NumKVHeads:       4,
		HeadDim:          128,
		IntermediateSize: 18944,
		VocabSize:        152064,
		BytesPerParam:    2,
	}
}

// Llama32_3B returns Llama-3.2-3B, a small-footprint preset.
func Llama32_3B() Config {
	return Config{
		Name:             "llama-3.2-3b",
		HiddenSize:       3072,
		NumLayers:        28,
		NumHeads:         24,
		NumKVHeads:       8,
		HeadDim:          128,
		IntermediateSize: 8192,
		VocabSize:        128256,
		BytesPerParam:    2,
	}
}

// Mistral7B returns Mistral-7B-v0.3.
func Mistral7B() Config {
	return Config{
		Name:             "mistral-7b",
		HiddenSize:       4096,
		NumLayers:        32,
		NumHeads:         32,
		NumKVHeads:       8,
		HeadDim:          128,
		IntermediateSize: 14336,
		VocabSize:        32768,
		BytesPerParam:    2,
	}
}

// Presets lists the built-in model configurations by name.
func Presets() map[string]Config {
	out := map[string]Config{}
	for _, c := range []Config{Llama31_8B(), Llama32_3B(), Qwen2_7B(), Mistral7B(), Tiny()} {
		out[c.Name] = c
	}
	return out
}

// Tiny returns a miniature config for fast unit tests.
func Tiny() Config {
	return Config{
		Name:             "tiny",
		HiddenSize:       256,
		NumLayers:        2,
		NumHeads:         4,
		NumKVHeads:       2,
		HeadDim:          64,
		IntermediateSize: 512,
		VocabSize:        1024,
		BytesPerParam:    2,
	}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.HiddenSize <= 0 || c.NumLayers <= 0 || c.NumHeads <= 0 ||
		c.NumKVHeads <= 0 || c.HeadDim <= 0 || c.IntermediateSize <= 0 ||
		c.VocabSize <= 0 || c.BytesPerParam <= 0:
		return fmt.Errorf("model %q: non-positive dimension", c.Name)
	case c.NumHeads*c.HeadDim != c.HiddenSize:
		return fmt.Errorf("model %q: heads*headDim = %d != hidden %d",
			c.Name, c.NumHeads*c.HeadDim, c.HiddenSize)
	case c.NumHeads%c.NumKVHeads != 0:
		return fmt.Errorf("model %q: heads %d not divisible by KV heads %d",
			c.Name, c.NumHeads, c.NumKVHeads)
	}
	if n := c.TPDegree; n > 1 {
		if c.NumHeads%n != 0 || c.NumKVHeads%n != 0 || c.IntermediateSize%n != 0 || c.VocabSize%n != 0 {
			return fmt.Errorf("model %q: dimensions not divisible by TP degree %d", c.Name, n)
		}
	}
	return nil
}

// KVDim returns the per-token K (or V) width: kvHeads*headDim.
func (c Config) KVDim() int { return c.NumKVHeads * c.HeadDim }

// QKVOutDim returns the fused QKV projection output width.
func (c Config) QKVOutDim() int { return c.HiddenSize + 2*c.KVDim() }

// ParamCount returns the total parameter count, including untied embedding
// and LM head.
func (c Config) ParamCount() float64 {
	perLayer := float64(c.HiddenSize*c.QKVOutDim() + // QKV
		c.HiddenSize*c.HiddenSize + // OProj
		3*c.HiddenSize*c.IntermediateSize) // gate, up, down
	embed := 2 * float64(c.VocabSize*c.HiddenSize)
	return float64(c.NumLayers)*perLayer + embed
}

// WeightBytes returns the resident weight footprint in bytes, per rank
// under tensor parallelism.
func (c Config) WeightBytes() units.Bytes {
	return units.Over(units.Bytes(c.ParamCount()*float64(c.BytesPerParam)), c.tp())
}

// KVBytesPerTokenLayer returns the KV cache bytes one token occupies in
// one layer (K and V).
func (c Config) KVBytesPerTokenLayer() units.Bytes {
	return units.Over(units.Bytes(2*float64(c.KVDim())*float64(c.BytesPerParam)), c.tp())
}

// KVBytesPerToken returns the KV cache bytes one token occupies across all
// layers.
func (c Config) KVBytesPerToken() units.Bytes {
	return units.Scale(c.KVBytesPerTokenLayer(), float64(c.NumLayers))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// gemmGrid returns the thread-block grid of an (rows × n) output GEMM.
func gemmGrid(rows, n, tileN int) int {
	return ceilDiv(rows, gemmTileM) * ceilDiv(n, tileN)
}

// OperatorNames lists the per-layer operator labels in execution order, as
// used in kernel names and in the Figure 2 / Table 1 breakdowns.
var OperatorNames = []string{"norm1", "qkv", "attn", "oproj", "norm2", "gateup", "down"}

// PrefillLayerKernels returns one decoder layer's kernel sequence for a
// prefill chunk of newTokens tokens whose sequences already have
// histTokens tokens of KV cache (histTokens > 0 under chunked prefill:
// each later chunk re-reads all earlier chunks' KV, the redundant-reload
// effect of §2.3). It is AppendLayerKernels for one sequence and no
// decode batch.
//
// The tag is attached to every kernel for utilization accounting.
func (c Config) PrefillLayerKernels(newTokens, histTokens int, tag string) []gpusim.Kernel {
	return c.AppendLayerKernels(nil, []int{newTokens}, []int{histTokens}, 0, 0, tag)
}

// AppendLayerKernels appends one decoder layer's kernel sequence to dst
// and returns the extended slice. The layer prefills len(seqLens)
// sequences — seqLens[i] new tokens over histLens[i] cached ones — and
// takes one decode step for batch sequences of avgCtx average context:
//
//   - no decode batch (batch == 0) is a prefill batch, Bullet's prefill
//     engine's layer;
//   - no sequences is a decode step;
//   - both is a chunked-prefill hybrid batch (§2.3.1).
//
// The linear operators (norms, QKV, OProj, MLP) run over all
// sum(seqLens)+batch rows together, while attention runs per prefill
// sequence (each attends to itself plus its own cached history) and then
// once, paged, over the decode batch: the canonical SARATHI/vLLM/SGLang
// arrangement whose bubbles §2.4 describes. A layer without prefill rows
// is weight-bound, so its projections take GEMV grids.
//
// Under tensor parallelism every kernel is one rank's shard and the
// layer carries two allreduces. The list is sized before it is written,
// so a nil dst allocates once and a warm scratch buffer not at all.
//
//bullet:hotpath
func (c Config) AppendLayerKernels(dst []gpusim.Kernel, seqLens, histLens []int, batch int, avgCtx units.Tokens, tag string) []gpusim.Kernel {
	if len(histLens) != len(seqLens) {
		panic(fmt.Sprintf("model: %d sequences vs %d histories", len(seqLens), len(histLens)))
	}
	if batch < 0 || len(seqLens) == 0 && batch == 0 {
		panic(fmt.Sprintf("model: layer with %d sequences and a decode batch of %d", len(seqLens), batch))
	}
	prefillRows := 0
	for _, n := range seqLens {
		if n <= 0 {
			panic(fmt.Sprintf("model: layer with a sequence of %d tokens", n))
		}
		prefillRows += n
	}
	rows := prefillRows + batch
	s := float64(rows)
	h := float64(c.HiddenSize)
	bpp := float64(c.BytesPerParam)
	qkvOut := float64(c.QKVOutDim())
	inter := float64(c.IntermediateSize)
	// Under tensor parallelism each rank holds heads/n query heads and
	// kvDim/n of the KV width (column-parallel QKV, head-split
	// attention, row-parallel OProj), and 1/n of the MLP width.
	n := c.tp()
	nInt := int(n)

	// Six linear kernels, an attention per sequence and one for the
	// decode batch, and the allreduces.
	size := 6 + len(seqLens)
	if batch > 0 {
		size++
	}
	if nInt > 1 {
		size += 2
	}
	if cap(dst)-len(dst) < size {
		//lint:ignore hotalloc grows a nil or short dst once, to the whole layer; engines and the estimator pass warm scratch
		grown := make([]gpusim.Kernel, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}

	dst = append(dst,
		gpusim.Kernel{
			Name: "norm1", Tag: tag, Tokens: rows,
			FLOPs: units.FLOPs(10 * s * h),
			Bytes: units.Bytes(elementwiseBWFactor * s * h * bpp),
		},
		gpusim.Kernel{
			Name: "qkv", Tag: tag, Tokens: rows,
			FLOPs:      units.FLOPs(2 * s * h * qkvOut / n),
			Bytes:      units.Bytes((h*qkvOut/n + s*h + s*qkvOut/n) * bpp),
			Grid:       linearGrid(prefillRows, rows, c.QKVOutDim()/nInt, wideTileN),
			Efficiency: gemmEfficiency,
		})
	for i, sl := range seqLens {
		dst = append(dst, c.prefillAttnKernel(sl, histLens[i], tag))
	}
	if batch > 0 {
		dst = append(dst, c.decodeAttnKernel(batch, avgCtx, tag))
	}
	dst = append(dst, gpusim.Kernel{
		Name: "oproj", Tag: tag, Tokens: rows,
		FLOPs:      units.FLOPs(2 * s * h * h / n),
		Bytes:      units.Bytes((h*h/n + s*h/n + s*h) * bpp),
		Grid:       linearGrid(prefillRows, rows, c.HiddenSize, wideTileN),
		Efficiency: gemmEfficiency,
	})
	if nInt > 1 {
		// Row-parallel outputs need allreducing: after OProj (insert
		// before norm2) and after down.
		dst = append(dst, c.allReduceKernel(rows, tag))
	}
	dst = append(dst,
		gpusim.Kernel{
			Name: "norm2", Tag: tag, Tokens: rows,
			FLOPs: units.FLOPs(10 * s * h),
			Bytes: units.Bytes(elementwiseBWFactor * s * h * bpp),
		},
		gpusim.Kernel{
			Name: "gateup", Tag: tag, Tokens: rows,
			FLOPs:      units.FLOPs(2 * s * h * 2 * inter / n),
			Bytes:      units.Bytes((2*h*inter/n + s*h + 2*s*inter/n) * bpp),
			Grid:       linearGrid(prefillRows, rows, 2*c.IntermediateSize/nInt, wideTileN),
			Efficiency: gemmEfficiency,
		},
		gpusim.Kernel{
			Name: "down", Tag: tag, Tokens: rows,
			FLOPs:      units.FLOPs(2 * s * inter * h / n),
			Bytes:      units.Bytes((h*inter/n + s*inter/n + s*h) * bpp),
			Grid:       linearGrid(prefillRows, rows, c.HiddenSize, downTileN),
			Efficiency: gemmEfficiency,
		})
	if nInt > 1 {
		dst = append(dst, c.allReduceKernel(rows, tag))
	}
	return dst
}

// linearGrid sizes the grid of a projection with rows input rows and
// width output columns: GEMM tiles when the layer has prefill rows, otherwise
// a decode GEMV grid of one block row per 16 batch rows, tiled over the
// width. GEMVs are memory-bound, so their grid mostly matters for SM
// occupancy accounting rather than wave stalls.
func linearGrid(prefillRows, rows, width, tileN int) int {
	if prefillRows == 0 {
		return ceilDiv(rows, 16) * ceilDiv(width, downTileN)
	}
	return gemmGrid(rows, width, tileN)
}

// decodeAttnKernel is the paged attention of a decode step over batch
// sequences of avgCtx average context: it reads the whole KV cache
// through the page table (traffic inflated by pagedTrafficInflation),
// split over the tensor-parallel ranks' KV heads.
func (c Config) decodeAttnKernel(batch int, avgCtx units.Tokens, tag string) gpusim.Kernel {
	b := float64(batch)
	h := float64(c.HiddenSize)
	bpp := float64(c.BytesPerParam)
	kvDim := float64(c.KVDim())
	ctx := avgCtx.Float()
	n := c.tp()
	return gpusim.Kernel{
		Name: "attn", Tag: tag, Tokens: batch,
		FLOPs:      units.FLOPs(4 * h * b * ctx / n),
		Bytes:      units.Bytes((2*b*ctx*kvDim*pagedTrafficInflation/n + 2*b*h/n) * bpp),
		Grid:       batch * (c.NumKVHeads / int(n)),
		Efficiency: decodeAttnEfficiency,
	}
}

// prefillAttnKernel is the attention kernel of a prefill layer over
// newTokens new tokens with histTokens cached: each new token attends to
// the cached tokens plus (causally) about half of the chunk itself. QK^T
// and A·V each cost 2·keys·headDim per query row per head = 2·keys·h
// total, split over the tensor-parallel ranks.
func (c Config) prefillAttnKernel(newTokens, histTokens int, tag string) gpusim.Kernel {
	s := float64(newTokens)
	h := float64(c.HiddenSize)
	bpp := float64(c.BytesPerParam)
	kvDim := float64(c.KVDim())
	hist := float64(histTokens)
	n := c.tp()
	attnKeys := s*hist + s*(s+1)/2
	return gpusim.Kernel{
		Name: "attn", Tag: tag, Tokens: newTokens + histTokens,
		FLOPs: units.FLOPs(4 * h * attnKeys / n),
		Bytes: units.Bytes((2*(hist+s)*kvDim/n + // K and V read (per-rank shard)
			2*s*h/n) * bpp), // Q in, O out
		Grid:       c.NumHeads / int(n) * ceilDiv(newTokens, flashRowBlock),
		Efficiency: prefillAttnEfficiency,
	}
}

// LMHeadKernel returns the logits projection over rows tokens.
func (c Config) LMHeadKernel(rows int, tag string) gpusim.Kernel {
	r := float64(rows)
	h := float64(c.HiddenSize)
	v := float64(c.VocabSize)
	bpp := float64(c.BytesPerParam)
	n := c.tp()
	k := gpusim.Kernel{
		Name: "lmhead", Tag: tag, Tokens: rows,
		FLOPs:      units.FLOPs(2 * r * h * v / n),
		Bytes:      units.Bytes((h*v/n + r*h + r*v/n) * bpp),
		Grid:       gemmGrid(rows, c.VocabSize/int(n), wideTileN),
		Efficiency: gemmEfficiency,
	}
	if n > 1 {
		// All-gather of the per-rank logit shards.
		k.CommBytes = units.Bytes((n - 1) / n * r * v * bpp)
	}
	return k
}

// Work aggregates FLOPs and bytes of a kernel sequence.
type Work struct {
	FLOPs     units.FLOPs
	Bytes     units.Bytes
	CommBytes units.Bytes
}

// Aggregate sums a kernel list into a Work.
func Aggregate(ks []gpusim.Kernel) Work {
	var w Work
	for _, k := range ks {
		w.FLOPs += k.FLOPs
		w.Bytes += k.Bytes
		w.CommBytes += k.CommBytes
	}
	return w
}

// DecodeStepKernel collapses a full decode iteration (all layers plus the
// LM head) into one fluid kernel, modelling a captured CUDA graph the way
// Bullet launches decode (§3.3.1: "a single compounded operation via CUDA
// Graph"). Aggregation is accurate here because every decode kernel is
// memory-bound, so the step time is dominated by total bytes.
func (c Config) DecodeStepKernel(batch int, avgCtx units.Tokens, tag string) gpusim.Kernel {
	k, _ := c.DecodeStepKernelScratch(nil, batch, avgCtx, tag)
	return k
}

// DecodeStepKernelScratch is DecodeStepKernel using (and returning) a
// caller-owned scratch buffer for the intermediate layer kernel list, so
// per-cycle callers avoid allocating one per prediction.
func (c Config) DecodeStepKernelScratch(scratch []gpusim.Kernel, batch int, avgCtx units.Tokens, tag string) (gpusim.Kernel, []gpusim.Kernel) {
	scratch = c.AppendLayerKernels(scratch[:0], nil, nil, batch, avgCtx, tag)
	layer := Aggregate(scratch)
	head := c.LMHeadKernel(batch, tag)
	return gpusim.Kernel{
		Name:       "decode-step",
		Tag:        tag,
		Tokens:     batch,
		FLOPs:      units.Scale(layer.FLOPs, float64(c.NumLayers)) + head.FLOPs,
		Bytes:      units.Scale(layer.Bytes, float64(c.NumLayers)) + head.Bytes,
		CommBytes:  units.Scale(layer.CommBytes, float64(c.NumLayers)) + head.CommBytes,
		Efficiency: decodeAttnEfficiency, // conservative: graph mixes ops
		Graph:      true,
		GraphHead:  true,
	}, scratch
}

// PrefillWork returns the aggregate work of prefilling newTokens tokens
// (with histTokens cached) across all layers, for capacity estimation.
func (c Config) PrefillWork(newTokens, histTokens int) Work {
	layer := Aggregate(c.PrefillLayerKernels(newTokens, histTokens, ""))
	return Work{
		FLOPs: units.Scale(layer.FLOPs, float64(c.NumLayers)),
		Bytes: units.Scale(layer.Bytes, float64(c.NumLayers)),
	}
}
