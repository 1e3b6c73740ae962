package model

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gpusim"
	"repro/internal/units"
)

// TestHybridLayerKernelsComposition pins the layout of every layer shape
// AppendLayerKernels builds: the linear kernels over all prefill and
// decode rows (identical to a single prefill of that many rows, GEMV
// grids aside), the per-sequence prefill attentions in order, then the
// decode attention; and appending after a prior kernel leaves the prefix
// and the layer unchanged.
func TestHybridLayerKernelsComposition(t *testing.T) {
	const (
		threeAttn = "norm1 qkv attn attn attn oproj norm2 gateup down"
		oneAttn   = "norm1 qkv attn oproj norm2 gateup down"
	)
	for _, tc := range []struct {
		name              string
		c                 Config
		seqLens, histLens []int
		batch             int
		names             string
	}{
		{"hybrid", Llama31_8B(), []int{512, 256}, []int{0, 1024}, 32, threeAttn},
		{"batch", Llama31_8B(), []int{512, 64, 1000}, []int{0, 128, 7}, 0, threeAttn},
		{"decode", Llama31_8B(), nil, nil, 16, oneAttn},
		{"single", Qwen2_7B(), []int{1024}, []int{0}, 0, oneAttn},
		{"hybrid-tp2", Llama31_8B().TP(2), []int{512}, []int{64}, 8,
			"norm1 qkv attn attn oproj allreduce norm2 gateup down allreduce"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			ks := c.AppendLayerKernels(nil, tc.seqLens, tc.histLens, tc.batch, 2048, "h")
			names := make([]string, len(ks))
			for i, k := range ks {
				names[i] = k.Name
			}
			if got := strings.Join(names, " "); got != tc.names {
				t.Fatalf("kernels %q, want %q", got, tc.names)
			}
			rows := tc.batch
			for i, n := range tc.seqLens {
				rows += n
				if k := ks[2+i]; k.Tokens != n+tc.histLens[i] || k != c.prefillAttnKernel(n, tc.histLens[i], "h") {
					t.Errorf("attention %d = %+v, want sequence %d's own", i, k, i)
				}
			}
			attn := len(tc.seqLens)
			if tc.batch > 0 {
				attn++
			}
			ref := c.PrefillLayerKernels(rows, 0, "h")
			for i, k := range ks {
				if k.Name == "attn" {
					continue
				}
				j := i // ref has one attention where ks has attn of them
				if i > 1 {
					j = i - attn + 1
				}
				want := ref[j]
				if k.Name != want.Name || k.Tokens != rows || k.FLOPs != want.FLOPs || k.Bytes != want.Bytes ||
					k.CommBytes != want.CommBytes || len(tc.seqLens) > 0 && k.Grid != want.Grid {
					t.Errorf("%s = %+v, want the %d-row prefill's %+v", k.Name, k, rows, want)
				}
			}
			prior := gpusim.Kernel{Name: "prior"}
			got := c.AppendLayerKernels([]gpusim.Kernel{prior}, tc.seqLens, tc.histLens, tc.batch, 2048, "h")
			if got[0] != prior || !reflect.DeepEqual(got[1:], ks) {
				t.Error("appending after a prior kernel changed the layer or the prefix")
			}
		})
	}
}

func TestHybridDegeneratesToDecodeOnly(t *testing.T) {
	c := Llama31_8B()
	ks := c.AppendLayerKernels(nil, nil, nil, 16, 512, "h")
	ref := c.oracleDecodeLayer(16, 512, "h")
	if len(ks) != len(ref) {
		t.Fatalf("decode-only hybrid has %d kernels, want %d", len(ks), len(ref))
	}
	if Aggregate(ks) != Aggregate(ref) {
		t.Fatal("decode-only hybrid work mismatch")
	}
}

func TestHybridDegeneratesToPrefillOnly(t *testing.T) {
	c := Llama31_8B()
	ks := c.AppendLayerKernels(nil, []int{1024}, []int{0}, 0, 0, "h")
	for _, ref := range [][]gpusim.Kernel{
		c.oraclePrefillBatchLayer([]int{1024}, []int{0}, "h"),
		c.PrefillLayerKernels(1024, 0, "h"),
	} {
		if len(ks) != len(ref) {
			t.Fatalf("prefill-only hybrid has %d kernels, want %d", len(ks), len(ref))
		}
		if Aggregate(ks) != Aggregate(ref) {
			t.Fatal("prefill-only hybrid work mismatch")
		}
	}
}

// mustPanic fails t unless f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one naming %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %q", msg, want)
		}
	}()
	f()
}

func TestHybridEmptyPanics(t *testing.T) {
	mustPanic(t, "0 sequences and a decode batch of 0", func() {
		Tiny().AppendLayerKernels(nil, nil, nil, 0, 0, "h")
	})
}

// TestHybridZeroLengthChunkPanics: a zero-length chunk is bad input in a
// hybrid batch as in every other shape.
func TestHybridZeroLengthChunkPanics(t *testing.T) {
	mustPanic(t, "0 tokens", func() {
		Tiny().AppendLayerKernels(nil, []int{64, 0}, []int{0, 32}, 4, 64, "h")
	})
}

func TestPrefillBatchMismatchedLensPanics(t *testing.T) {
	mustPanic(t, "2 sequences vs 1 histories", func() {
		Tiny().AppendLayerKernels(nil, []int{10, 20}, []int{0}, 0, 0, "t")
	})
}

func TestPrefillBatchEmptyPanics(t *testing.T) {
	mustPanic(t, "0 sequences", func() {
		Tiny().AppendLayerKernels(nil, []int{}, []int{}, 0, 0, "t")
	})
}

func TestPrefillBatchNonPositivePanics(t *testing.T) {
	mustPanic(t, "-3 tokens", func() {
		Tiny().AppendLayerKernels(nil, []int{128, -3}, []int{0, 0}, 0, 0, "t")
	})
	mustPanic(t, "0 tokens", func() {
		Tiny().AppendLayerKernels(nil, []int{128, 0}, []int{0, 0}, 0, 0, "t")
	})
}

func TestDecodeLayerPanicsOnZeroBatch(t *testing.T) {
	mustPanic(t, "decode batch of 0", func() { Tiny().DecodeStepKernel(0, 16, "t") })
	mustPanic(t, "decode batch of -1", func() {
		Tiny().AppendLayerKernels(nil, []int{64}, []int{0}, -1, 16, "t")
	})
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
		hy := c.AppendLayerKernels(nil, []int{a, b}, []int{0, 64}, batch, 128, "h")
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
