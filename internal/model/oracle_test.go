package model

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/units"
)

// The four layer builders AppendLayerKernels replaced, renamed but with
// their arithmetic and kernel order unchanged (they call each other and
// their own attention kernel), kept as an oracle: at tensor-parallel
// degree 1 every shape must come out bit-identical to them.

func (c Config) oraclePrefillLayer(newTokens, histTokens int, tag string) []gpusim.Kernel {
	var dst []gpusim.Kernel
	if newTokens <= 0 {
		panic(fmt.Sprintf("model: PrefillLayerKernels with %d tokens", newTokens))
	}
	s := float64(newTokens)
	h := float64(c.HiddenSize)
	bpp := float64(c.BytesPerParam)
	qkvOut := float64(c.QKVOutDim())
	inter := float64(c.IntermediateSize)
	n := c.tp()
	nInt := int(n)

	dst = append(dst,
		gpusim.Kernel{
			Name: "norm1", Tag: tag, Tokens: newTokens,
			FLOPs: units.FLOPs(10 * s * h),
			Bytes: units.Bytes(elementwiseBWFactor * s * h * bpp),
		},
		gpusim.Kernel{
			Name: "qkv", Tag: tag, Tokens: newTokens,
			FLOPs:      units.FLOPs(2 * s * h * qkvOut / n),
			Bytes:      units.Bytes((h*qkvOut/n + s*h + s*qkvOut/n) * bpp),
			Grid:       gemmGrid(newTokens, c.QKVOutDim()/nInt, wideTileN),
			Efficiency: gemmEfficiency,
		},
		c.oraclePrefillAttn(newTokens, histTokens, tag),
		gpusim.Kernel{
			Name: "oproj", Tag: tag, Tokens: newTokens,
			FLOPs:      units.FLOPs(2 * s * h * h / n),
			Bytes:      units.Bytes((h*h/n + s*h/n + s*h) * bpp),
			Grid:       gemmGrid(newTokens, c.HiddenSize, wideTileN),
			Efficiency: gemmEfficiency,
		})
	if nInt > 1 {
		dst = append(dst, c.allReduceKernel(newTokens, tag))
	}
	dst = append(dst,
		gpusim.Kernel{
			Name: "norm2", Tag: tag, Tokens: newTokens,
			FLOPs: units.FLOPs(10 * s * h),
			Bytes: units.Bytes(elementwiseBWFactor * s * h * bpp),
		},
		gpusim.Kernel{
			Name: "gateup", Tag: tag, Tokens: newTokens,
			FLOPs:      units.FLOPs(2 * s * h * 2 * inter / n),
			Bytes:      units.Bytes((2*h*inter/n + s*h + 2*s*inter/n) * bpp),
			Grid:       gemmGrid(newTokens, 2*c.IntermediateSize/nInt, wideTileN),
			Efficiency: gemmEfficiency,
		},
		gpusim.Kernel{
			Name: "down", Tag: tag, Tokens: newTokens,
			FLOPs:      units.FLOPs(2 * s * inter * h / n),
			Bytes:      units.Bytes((h*inter/n + s*inter/n + s*h) * bpp),
			Grid:       gemmGrid(newTokens, c.HiddenSize, downTileN),
			Efficiency: gemmEfficiency,
		})
	if nInt > 1 {
		dst = append(dst, c.allReduceKernel(newTokens, tag))
	}
	return dst
}

func (c Config) oraclePrefillAttn(newTokens, histTokens int, tag string) gpusim.Kernel {
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
		Bytes: units.Bytes((2*(hist+s)*kvDim/n +
			2*s*h/n) * bpp),
		Grid:       c.NumHeads / int(n) * ceilDiv(newTokens, flashRowBlock),
		Efficiency: prefillAttnEfficiency,
	}
}

func (c Config) oraclePrefillBatchLayer(seqLens, histLens []int, tag string) []gpusim.Kernel {
	var dst []gpusim.Kernel
	total := 0
	for _, n := range seqLens {
		if n <= 0 {
			panic(fmt.Sprintf("model: non-positive sequence length %d", n))
		}
		total += n
	}
	dst = c.oraclePrefillLayer(total, 0, tag)
	attn := 0
	for dst[attn].Name != "attn" {
		attn++
	}
	tail := len(dst) - attn - 1
	for range seqLens[1:] {
		dst = append(dst, gpusim.Kernel{})
	}
	copy(dst[attn+len(seqLens):], dst[attn+1:attn+1+tail])
	for i, n := range seqLens {
		dst[attn+i] = c.oraclePrefillAttn(n, histLens[i], tag)
	}
	return dst
}

func (c Config) oracleDecodeLayer(batch int, avgCtx units.Tokens, tag string) []gpusim.Kernel {
	b := float64(batch)
	h := float64(c.HiddenSize)
	bpp := float64(c.BytesPerParam)
	qkvOut := float64(c.QKVOutDim())
	kvDim := float64(c.KVDim())
	inter := float64(c.IntermediateSize)
	ctx := avgCtx.Float()
	decodeGrid := func(batch, n int) int { return ceilDiv(batch, 16) * ceilDiv(n, downTileN) }

	attnFLOPs := units.FLOPs(4 * h * b * ctx)
	attnBytes := units.Bytes((2*b*ctx*kvDim*pagedTrafficInflation + 2*b*h) * bpp)

	return []gpusim.Kernel{
		{
			Name: "norm1", Tag: tag, Tokens: batch,
			FLOPs: units.FLOPs(10 * b * h),
			Bytes: units.Bytes(elementwiseBWFactor * b * h * bpp),
		},
		{
			Name: "qkv", Tag: tag, Tokens: batch,
			FLOPs:      units.FLOPs(2 * b * h * qkvOut),
			Bytes:      units.Bytes((h*qkvOut + b*h + b*qkvOut) * bpp),
			Grid:       decodeGrid(batch, c.QKVOutDim()),
			Efficiency: gemmEfficiency,
		},
		{
			Name: "attn", Tag: tag, Tokens: batch,
			FLOPs:      attnFLOPs,
			Bytes:      attnBytes,
			Grid:       batch * c.NumKVHeads,
			Efficiency: decodeAttnEfficiency,
		},
		{
			Name: "oproj", Tag: tag, Tokens: batch,
			FLOPs:      units.FLOPs(2 * b * h * h),
			Bytes:      units.Bytes((h*h + 2*b*h) * bpp),
			Grid:       decodeGrid(batch, c.HiddenSize),
			Efficiency: gemmEfficiency,
		},
		{
			Name: "norm2", Tag: tag, Tokens: batch,
			FLOPs: units.FLOPs(10 * b * h),
			Bytes: units.Bytes(elementwiseBWFactor * b * h * bpp),
		},
		{
			Name: "gateup", Tag: tag, Tokens: batch,
			FLOPs:      units.FLOPs(2 * b * h * 2 * inter),
			Bytes:      units.Bytes((2*h*inter + b*h + 2*b*inter) * bpp),
			Grid:       decodeGrid(batch, 2*c.IntermediateSize),
			Efficiency: gemmEfficiency,
		},
		{
			Name: "down", Tag: tag, Tokens: batch,
			FLOPs:      units.FLOPs(2 * b * inter * h),
			Bytes:      units.Bytes((h*inter + b*inter + b*h) * bpp),
			Grid:       decodeGrid(batch, c.HiddenSize),
			Efficiency: gemmEfficiency,
		},
	}
}

func (c Config) oracleHybridLayer(chunkLens, histLens []int, batch int, avgCtx units.Tokens, tag string) []gpusim.Kernel {
	chunkTotal := 0
	for _, n := range chunkLens {
		chunkTotal += n
	}
	if chunkTotal == 0 {
		return c.oracleDecodeLayer(batch, avgCtx, tag)
	}
	if batch == 0 {
		return c.oraclePrefillBatchLayer(chunkLens, histLens, tag)
	}
	rows := chunkTotal + batch
	base := c.oraclePrefillLayer(rows, 0, tag)
	var decodeAttn gpusim.Kernel
	for _, k := range c.oracleDecodeLayer(batch, avgCtx, tag) {
		if k.Name == "attn" {
			decodeAttn = k
		}
	}
	out := make([]gpusim.Kernel, 0, len(base)+len(chunkLens))
	for _, k := range base {
		if k.Name != "attn" {
			out = append(out, k)
			continue
		}
		for i, n := range chunkLens {
			if n == 0 {
				continue
			}
			for _, pk := range c.oraclePrefillLayer(n, histLens[i], tag) {
				if pk.Name == "attn" {
					out = append(out, pk)
				}
			}
		}
		out = append(out, decodeAttn)
	}
	return out
}

// TestAppendLayerKernelsMatchesParentBuilders checks the one layer
// builder against the four it replaced: every shape bit-identical at
// tensor-parallel degree 1; at TP 2 and 4 single and batched prefill
// still identical, and hybrids identical except for the decode
// attention, which is now sharded (TestTPShardsDecodeLayer covers
// decode).
func TestAppendLayerKernelsMatchesParentBuilders(t *testing.T) {
	type shape struct {
		seqLens, histLens []int
		batch             int
		ctx               units.Tokens
	}
	var shapes []shape
	for _, n := range []int{1, 100, 2048} {
		for _, hist := range []int{0, 1536} {
			shapes = append(shapes, shape{seqLens: []int{n}, histLens: []int{hist}})
		}
	}
	batches := [][2][]int{
		{{512, 64, 1000}, {0, 128, 7}},
		{{1, 1}, {0, 0}},
		{{300, 300, 300, 300}, {0, 4096, 0, 17}},
	}
	for _, b := range batches {
		shapes = append(shapes, shape{seqLens: b[0], histLens: b[1]})
	}
	for _, batch := range []int{1, 32, 256} {
		for _, ctx := range []units.Tokens{1, 1024, 1500.37} {
			shapes = append(shapes, shape{batch: batch, ctx: ctx})
			shapes = append(shapes, shape{seqLens: []int{700}, histLens: []int{2048}, batch: batch, ctx: ctx})
			for _, b := range batches {
				shapes = append(shapes, shape{b[0], b[1], batch, ctx})
			}
		}
	}
	for _, base := range []Config{Llama31_8B(), Qwen2_7B(), Tiny()} {
		for _, tp := range []int{1, 2, 4} {
			c := base.TP(tp)
			if c.Validate() != nil {
				continue // Tiny's two KV heads do not split four ways
			}
			for _, sh := range shapes {
				got := c.AppendLayerKernels(nil, sh.seqLens, sh.histLens, sh.batch, sh.ctx, "o")
				var want []gpusim.Kernel
				switch {
				case sh.batch == 0 && len(sh.seqLens) == 1:
					want = c.oraclePrefillLayer(sh.seqLens[0], sh.histLens[0], "o")
					if pl := c.PrefillLayerKernels(sh.seqLens[0], sh.histLens[0], "o"); !reflect.DeepEqual(pl, want) {
						t.Errorf("%s %+v: PrefillLayerKernels differs from the parent builder", c.Name, sh)
					}
				case sh.batch == 0:
					want = c.oraclePrefillBatchLayer(sh.seqLens, sh.histLens, "o")
				case tp > 1 && len(sh.seqLens) == 0:
					continue
				default:
					want = c.oracleHybridLayer(sh.seqLens, sh.histLens, sh.batch, sh.ctx, "o")
				}
				if tp > 1 && sh.batch > 0 {
					// Mask the decode attention, the one kernel sharding
					// changes, on both sides.
					i := 2 + len(sh.seqLens)
					if len(got) != len(want) || got[i].Name != "attn" || want[i].Name != "attn" {
						t.Errorf("%s %+v: no decode attention at %d", c.Name, sh, i)
						continue
					}
					got[i], want[i] = gpusim.Kernel{}, gpusim.Kernel{}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %+v:\n got %+v\nwant %+v", c.Name, sh, got, want)
				}
			}
		}
	}
}
