package model

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gpusim"
	"repro/internal/units"
)

func sumWork(ks []gpusim.Kernel) (flops units.FLOPs, bytes units.Bytes) {
	for _, k := range ks {
		flops += k.FLOPs
		bytes += k.Bytes
	}
	return
}

func TestHybridLayerKernelsComposition(t *testing.T) {
	c := Llama31_8B()
	ks := c.HybridLayerKernels([]int{512, 256}, []int{0, 1024}, 32, 2048, "h")
	// Expect: norm1, qkv, 2 prefill attn, 1 decode attn, oproj, norm2,
	// gateup, down = 9 kernels.
	if len(ks) != 9 {
		t.Fatalf("kernels = %d, want 9", len(ks))
	}
	attn := 0
	for _, k := range ks {
		if k.Name == "attn" {
			attn++
		}
	}
	if attn != 3 {
		t.Fatalf("attention kernels = %d, want 3", attn)
	}
	// Linear kernels process 512+256+32 = 800 rows: their FLOPs must
	// match a 800-token prefill layer's linear kernels.
	ref := c.PrefillLayerKernels(800, 0, "h")
	for i, name := range []string{"qkv", "oproj", "gateup", "down"} {
		_ = i
		var got, want gpusim.Kernel
		for _, k := range ks {
			if k.Name == name {
				got = k
			}
		}
		for _, k := range ref {
			if k.Name == name {
				want = k
			}
		}
		if units.Abs(got.FLOPs-want.FLOPs) > 1 {
			t.Errorf("%s FLOPs = %g, want %g", name, got.FLOPs, want.FLOPs)
		}
	}
}

func TestHybridDegeneratesToDecodeOnly(t *testing.T) {
	c := Llama31_8B()
	ks := c.HybridLayerKernels(nil, nil, 16, 512, "h")
	ref := c.DecodeLayerKernels(16, 512, "h")
	if len(ks) != len(ref) {
		t.Fatalf("decode-only hybrid has %d kernels, want %d", len(ks), len(ref))
	}
	gf, gb := sumWork(ks)
	wf, wb := sumWork(ref)
	if gf != wf || gb != wb {
		t.Fatal("decode-only hybrid work mismatch")
	}
}

func TestHybridDegeneratesToPrefillOnly(t *testing.T) {
	c := Llama31_8B()
	ks := c.HybridLayerKernels([]int{1024}, []int{0}, 0, 0, "h")
	ref := c.PrefillBatchLayerKernels([]int{1024}, []int{0}, "h")
	gf, gb := sumWork(ks)
	wf, wb := sumWork(ref)
	if gf != wf || gb != wb {
		t.Fatal("prefill-only hybrid work mismatch")
	}
}

func TestHybridEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty hybrid accepted")
		}
	}()
	Tiny().HybridLayerKernels(nil, nil, 0, 0, "h")
}

func TestHybridZeroLengthChunkSkipped(t *testing.T) {
	c := Tiny()
	ks := c.HybridLayerKernels([]int{64, 0}, []int{0, 32}, 4, 64, "h")
	attn := 0
	for _, k := range ks {
		if k.Name == "attn" {
			attn++
		}
	}
	// One prefill attention (the zero-length chunk contributes none)
	// plus one decode attention.
	if attn != 2 {
		t.Fatalf("attention kernels = %d, want 2", attn)
	}
}

// TestAppendPrefillBatchLayerKernels pins the batch layer's layout: the
// single-sequence layer over the concatenated rows with its attention
// replaced by each sequence's own attention, in batch order (tensor
// parallel too, where all-reduces follow the attention), appended after
// whatever dst already holds.
func TestAppendPrefillBatchLayerKernels(t *testing.T) {
	seqLens, histLens := []int{512, 64, 1000}, []int{0, 128, 7}
	for _, c := range []Config{Llama31_8B(), Llama31_8B().TP(2)} {
		var want []gpusim.Kernel
		for _, k := range c.PrefillLayerKernels(1576, 0, "p") {
			if k.Name != "attn" {
				want = append(want, k)
				continue
			}
			for i, n := range seqLens {
				want = append(want, c.PrefillLayerKernels(n, histLens[i], "p")[2])
			}
		}
		if got := c.PrefillBatchLayerKernels(seqLens, histLens, "p"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batch layer\n%+v\nwant\n%+v", c.Name, got, want)
		}
		head := gpusim.Kernel{Name: "prior"}
		got := c.AppendPrefillBatchLayerKernels([]gpusim.Kernel{head}, seqLens, histLens, "p")
		if got[0] != head || !reflect.DeepEqual(got[1:], want) {
			t.Errorf("%s: appending after a prior kernel changed the layer or the prefix", c.Name)
		}
	}
}

func TestPrefillBatchMismatchedLensPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lens accepted")
		}
	}()
	Tiny().PrefillBatchLayerKernels([]int{10, 20}, []int{0}, "t")
}

func TestPrefillBatchEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty batch accepted")
		}
	}()
	Tiny().PrefillBatchLayerKernels(nil, nil, "t")
}

func TestPrefillBatchNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length sequence accepted")
		}
	}()
	Tiny().PrefillBatchLayerKernels([]int{128, 0}, []int{0, 0}, "t")
}

func TestDecodeLayerPanicsOnZeroBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero batch accepted")
		}
	}()
	Tiny().DecodeLayerKernels(0, 16, "t")
}

func TestQwenPreset(t *testing.T) {
	c := Qwen2_7B()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// ~7.6B params.
	if p := c.ParamCount(); p < 6.5e9 || p > 8.5e9 {
		t.Fatalf("qwen2-7b params = %.3g", p)
	}
	// Its kernels must be well formed.
	for _, k := range c.PrefillLayerKernels(1024, 0, "q") {
		if k.FLOPs < 0 || k.Bytes <= 0 {
			t.Fatalf("bad kernel %+v", k)
		}
	}
	if k := c.DecodeStepKernel(8, 256, "q"); k.Bytes <= 0 {
		t.Fatalf("bad decode step %+v", k)
	}
}

// Property: hybrid work equals the sum of its parts (linear over total
// rows + per-sequence attention + decode attention), for any split.
func TestPropertyHybridWorkConservation(t *testing.T) {
	c := Tiny()
	f := func(aU, bU uint8, batchU uint8) bool {
		a := int(aU%200) + 1
		b := int(bU%200) + 1
		batch := int(batchU%32) + 1
		hy := c.HybridLayerKernels([]int{a, b}, []int{0, 64}, batch, 128, "h")
		// Linear rows = a+b+batch; attention separate.
		var attnF, linF units.FLOPs
		var attnB, linB units.Bytes
		for _, k := range hy {
			if k.Name == "attn" {
				attnF += k.FLOPs
				attnB += k.Bytes
			} else {
				linF += k.FLOPs
				linB += k.Bytes
			}
		}
		ref := c.PrefillLayerKernels(a+b+batch, 0, "h")
		var refLinF units.FLOPs
		for _, k := range ref {
			if k.Name != "attn" {
				refLinF += k.FLOPs
			}
		}
		return units.Abs(linF-refLinF) < 1 && attnF > 0 && attnB > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregate(t *testing.T) {
	w := Aggregate([]gpusim.Kernel{{FLOPs: 1, Bytes: 2}, {FLOPs: 3, Bytes: 4}})
	if w.FLOPs != 4 || w.Bytes != 6 {
		t.Fatalf("aggregate = %+v", w)
	}
}

func TestLMHeadKernel(t *testing.T) {
	c := Llama31_8B()
	k := c.LMHeadKernel(4, "t")
	// 2 * rows * h * vocab FLOPs.
	want := units.FLOPs(2.0 * 4 * 4096 * 128256)
	if units.Abs(k.FLOPs-want) > 1 {
		t.Fatalf("lmhead FLOPs = %g, want %g", k.FLOPs, want)
	}
	if k.Grid <= 0 || k.Bytes <= 0 {
		t.Fatalf("bad kernel %+v", k)
	}
}
