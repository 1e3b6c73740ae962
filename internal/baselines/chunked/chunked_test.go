package chunked

import (
	"testing"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/workload"
)

func run(t testing.TB, scheme Scheme, d workload.Dataset, rate float64, n int, seed int64) serving.Result {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), d.Name)
	e := New(env, scheme)
	return env.Run(e, workload.Generate(d, rate, n, seed))
}

// schemes are the evaluated variants, one engine each.
var schemes = []Scheme{VLLM1024(), SGLang1024(), SGLang2048(), NanoFlow1024()}

func TestCompletesAllRequests(t *testing.T) {
	for _, scheme := range schemes {
		t.Run(scheme.Name, func(t *testing.T) {
			res := run(t, scheme, workload.ShareGPT, 3, 30, 1)
			if res.Summary.Requests != 30 {
				t.Fatalf("completed %d/30", res.Summary.Requests)
			}
			if res.Summary.MeanTTFT <= 0 {
				t.Fatalf("bad summary %+v", res.Summary)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, scheme := range schemes {
		t.Run(scheme.Name, func(t *testing.T) {
			a := run(t, scheme, workload.AzureCode, 2, 20, 9)
			b := run(t, scheme, workload.AzureCode, 2, 20, 9)
			if a.Summary != b.Summary {
				t.Fatalf("non-deterministic: %+v vs %+v", a.Summary, b.Summary)
			}
		})
	}
}

func TestLargerChunkImprovesTTFTButHurtsTPOT(t *testing.T) {
	// The biased tradeoff of §2.3: a 2048 budget prefills long prompts
	// in half the iterations (better TTFT) but each hybrid iteration is
	// slower (worse TPOT). The effect shows under sustained load, when
	// decode tokens constantly ride prefill-bearing iterations.
	small := run(t, SGLang1024(), workload.AzureCode, 8, 100, 5)
	large := run(t, SGLang2048(), workload.AzureCode, 8, 100, 5)
	if large.Summary.MeanTTFT >= small.Summary.MeanTTFT {
		t.Fatalf("2048 TTFT %v not better than 1024 %v",
			large.Summary.MeanTTFT, small.Summary.MeanTTFT)
	}
	if large.Summary.MeanTPOTMs <= small.Summary.MeanTPOTMs {
		t.Fatalf("2048 TPOT %v not worse than 1024 %v",
			large.Summary.MeanTPOTMs, small.Summary.MeanTPOTMs)
	}
}

func TestLongPromptChunksAcrossIterations(t *testing.T) {
	// 8192 tokens need 8192/ChunkSize prefill iterations; the first
	// token comes out of the last, so 3 decode iterations follow.
	cases := []struct {
		scheme     Scheme
		iterations int
	}{
		{VLLM1024(), 8 + 3},
		{SGLang1024(), 8 + 3},
		{SGLang2048(), 4 + 3},
		{NanoFlow1024(), 8 + 3},
	}
	for _, c := range cases {
		t.Run(c.scheme.Name, func(t *testing.T) {
			env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "arxiv-summary")
			e := New(env, c.scheme)
			trace := &workload.Trace{Dataset: "arxiv-summary", Rate: 1, Requests: []workload.Request{
				{ID: "long", Arrival: 0.001, InputTokens: 8192, OutputTokens: 4, Dataset: "arxiv-summary"},
			}}
			res := env.Run(e, trace)
			if e.Iterations() != c.iterations {
				t.Fatalf("iterations = %d, want %d", e.Iterations(), c.iterations)
			}
			r := res.Requests[0]
			if r.TTFT() <= 0 || r.TPOT() <= 0 || r.Finish <= r.FirstToken {
				t.Fatalf("bad record %+v", r)
			}
		})
	}
}

func TestOverlapBeatsPlainChunked(t *testing.T) {
	// NanoFlow's nano-batch overlap should improve on same-budget plain
	// chunked prefill end to end (the paper places it best among
	// chunked systems).
	a := run(t, NanoFlow1024(), workload.ShareGPT, 8, 60, 2)
	b := run(t, SGLang1024(), workload.ShareGPT, 8, 60, 2)
	if a.Summary.MeanE2E >= b.Summary.MeanE2E*1.05 {
		t.Fatalf("nanoflow E2E %v not competitive with chunked %v",
			a.Summary.MeanE2E, b.Summary.MeanE2E)
	}
}

func TestHybridBatchSharesBudget(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	e := New(env, SGLang1024())
	rec := timeline.New(0)
	e.TL = rec
	trace := workload.Generate(workload.ShareGPT, 10, 40, 3)
	env.Run(e, trace)
	iterations, sawMixed := 0, false
	for _, ev := range rec.Events() {
		if ev.Lane != "hybrid" || ev.Name != "batch" {
			continue
		}
		iterations++
		arg := map[string]int64{}
		for _, a := range ev.Args {
			arg[a.Key] = a.I
		}
		if arg["decodeTokens"]+arg["chunkTokens"] > int64(e.scheme.ChunkSize) {
			t.Fatalf("budget exceeded: %+v", ev.Args)
		}
		if arg["decodeTokens"] > 0 && arg["chunkTokens"] > 0 {
			sawMixed = true
		}
	}
	if iterations != e.Iterations() {
		t.Fatalf("%d hybrid/batch counters for %d iterations", iterations, e.Iterations())
	}
	if !sawMixed {
		t.Fatal("no hybrid (decode+prefill) iterations observed")
	}
}

func TestPackPrefillsPacksMultiplePrompts(t *testing.T) {
	mk := func(pack bool) int {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
		s := SGLang1024()
		s.PackPrefills = pack
		e := New(env, s)
		reqs := make([]workload.Request, 6)
		for i := range reqs {
			reqs[i] = workload.Request{
				ID: string(rune('a' + i)), Arrival: 0.001, InputTokens: 100,
				OutputTokens: 2, Dataset: "sharegpt",
			}
		}
		env.Run(e, &workload.Trace{Dataset: "sharegpt", Rate: 1, Requests: reqs})
		return e.Iterations()
	}
	packed := mk(true)
	unpacked := mk(false)
	if packed >= unpacked {
		t.Fatalf("packing (%d iters) not fewer than unpacked (%d)", packed, unpacked)
	}
}

func TestInvalidSchemePanics(t *testing.T) {
	cases := []struct {
		name   string
		scheme Scheme
	}{
		{"zero-chunk", Scheme{Name: "bad"}},
		{"negative-efficiency", Scheme{Name: "bad", ChunkSize: 1024, PipelineEfficiency: -0.1}},
		{"efficiency-above-one", Scheme{Name: "bad", ChunkSize: 1024, PipelineEfficiency: 1.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
			defer func() {
				if recover() == nil {
					t.Fatalf("scheme %+v accepted", c.scheme)
				}
			}()
			New(env, c.scheme)
		})
	}
}

func BenchmarkSchemes(b *testing.B) {
	for _, scheme := range schemes {
		b.Run(scheme.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, scheme, workload.ShareGPT, 5, 30, 1)
			}
		})
	}
}
