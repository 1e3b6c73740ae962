package model

import (
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/units"
)

func TestTPConfigDerivation(t *testing.T) {
	c := Llama31_8B().TP(4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(c.Name, "-tp4") {
		t.Fatalf("name = %s", c.Name)
	}
	base := Llama31_8B()
	// Per-rank weights and KV shrink by the TP degree.
	if got, want := c.WeightBytes(), base.WeightBytes()/4; units.Abs(got-want) > 1 {
		t.Fatalf("weights/rank = %g, want %g", got, want)
	}
	if got, want := c.KVBytesPerToken(), base.KVBytesPerToken()/4; units.Abs(got-want) > 1 {
		t.Fatalf("kv/token/rank = %g, want %g", got, want)
	}
}

func TestTPValidateDivisibility(t *testing.T) {
	c := Llama31_8B().TP(3) // 32 heads not divisible by 3
	if c.Validate() == nil {
		t.Fatal("TP=3 accepted for 32 heads")
	}
	if Llama31_8B().TP(16).Validate() == nil {
		t.Fatal("TP=16 accepted for 8 KV heads")
	}
}

func TestTPShardsComputeAndAddsAllreduce(t *testing.T) {
	base := Llama31_8B()
	tp := base.TP(2)
	bks := base.PrefillLayerKernels(2048, 0, "p")
	tks := tp.PrefillLayerKernels(2048, 0, "p")
	// Two extra allreduce kernels per layer.
	if len(tks) != len(bks)+2 {
		t.Fatalf("kernels = %d, want %d", len(tks), len(bks)+2)
	}
	var baseW, tpW Work
	baseW = Aggregate(bks)
	tpW = Aggregate(tks)
	// Per-rank compute halves (elementwise norms stay replicated, so
	// slightly above half).
	if tpW.FLOPs > baseW.FLOPs*0.55 || tpW.FLOPs < baseW.FLOPs*0.45 {
		t.Fatalf("TP2 FLOPs = %g, want ≈ half of %g", tpW.FLOPs, baseW.FLOPs)
	}
	if baseW.CommBytes != 0 {
		t.Fatal("base model has comm traffic")
	}
	// Ring allreduce: 2 × 2(n-1)/n × payload = 2 × 2048×4096×2 bytes.
	wantComm := units.Bytes(2.0 * (2.0 * 0.5) * 2048 * 4096 * 2)
	if units.Ratio(units.Abs(tpW.CommBytes-wantComm), wantComm) > 0.01 {
		t.Fatalf("comm = %g, want %g", tpW.CommBytes, wantComm)
	}
}

// TestTPShardsDecodeLayer: a decode layer on one tensor-parallel rank
// does half the work of the unsharded layer in every sharded kernel and
// carries the two allreduces, as a prefill layer does.
func TestTPShardsDecodeLayer(t *testing.T) {
	one := Llama31_8B().AppendLayerKernels(nil, nil, nil, 32, 1024, "d")
	two := Llama31_8B().TP(2).AppendLayerKernels(nil, nil, nil, 32, 1024, "d")
	flops := map[string]units.FLOPs{}
	for _, k := range one {
		flops[k.Name] = k.FLOPs
	}
	allreduces := 0
	for _, k := range two {
		switch k.Name {
		case "qkv", "attn", "oproj", "gateup", "down":
			if k.FLOPs != flops[k.Name]/2 {
				t.Errorf("%s FLOPs per rank = %g at TP 2, want half of %g", k.Name, k.FLOPs, flops[k.Name])
			}
		case "allreduce":
			allreduces++
		}
	}
	if allreduces != 2 {
		t.Errorf("TP-2 decode layer carries %d allreduces, want 2", allreduces)
	}
}

func TestTPDecodeStepCarriesComm(t *testing.T) {
	tp := Llama31_8B().TP(2)
	step := tp.DecodeStepKernel(32, 1024, "d")
	if step.CommBytes <= 0 {
		t.Fatal("decode step lost comm bytes")
	}
	base := Llama31_8B().DecodeStepKernel(32, 1024, "d")
	if step.Bytes >= base.Bytes {
		t.Fatalf("TP step bytes %g not below base %g", step.Bytes, base.Bytes)
	}
}

func TestTPPrefillFasterPerRankButCommBound(t *testing.T) {
	// On the simulated A100 pair, a TP2 prefill layer should be faster
	// than TP1 (compute halves) but by less than 2x (allreduce +
	// replicated elementwise).
	spec := gpusim.A100()
	measure := func(c Config) units.Seconds {
		w := Aggregate(c.PrefillLayerKernels(4096, 0, "p"))
		ct := w.FLOPs.Div(spec.PeakFLOPS * 0.9)
		bt := w.Bytes.Div(spec.PeakBW)
		lt := w.CommBytes.Div(spec.LinkBW)
		return units.Max(ct, bt) + lt
	}
	t1 := measure(Llama31_8B())
	t2 := measure(Llama31_8B().TP(2))
	if t2 >= t1 {
		t.Fatalf("TP2 layer (%g) not faster than TP1 (%g)", t2, t1)
	}
	if units.Ratio(t1, t2) > 1.95 {
		t.Fatalf("TP2 speedup %.2fx implausibly ideal", units.Ratio(t1, t2))
	}
}

func TestAllReduceKernelRespectsRing(t *testing.T) {
	c := Llama31_8B().TP(8)
	k := c.allReduceKernel(1024, "p")
	const payload = 1024.0 * 4096 * 2
	want := units.Bytes(2 * (7.0 / 8.0) * payload)
	if units.Abs(k.CommBytes-want) > 1 {
		t.Fatalf("comm = %g, want %g", k.CommBytes, want)
	}
	if k.Bytes != 2*payload {
		t.Fatalf("hbm bytes = %g", k.Bytes)
	}
}

func TestTPOneIsIdentity(t *testing.T) {
	base := Llama31_8B()
	one := base.TP(1)
	if one.Name != base.Name {
		t.Fatalf("TP(1) renamed: %s", one.Name)
	}
	a := Aggregate(base.PrefillLayerKernels(1024, 0, "p"))
	b := Aggregate(one.PrefillLayerKernels(1024, 0, "p"))
	if a != b {
		t.Fatal("TP(1) changed the kernels")
	}
}
