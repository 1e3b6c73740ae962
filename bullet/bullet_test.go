package bullet

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/serving"
)

func TestNewDefaults(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.System != "bullet" || srv.cfg.Model != "llama-3.1-8b" {
		t.Fatalf("defaults = %+v", srv.cfg)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{System: "nope"},
		{Model: "gpt-17"},
		{Dataset: "imagenet"},
	}
	for _, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestGenerateTrace(t *testing.T) {
	reqs, err := GenerateTrace("sharegpt", 5, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 50 {
		t.Fatalf("len = %d", len(reqs))
	}
	prev := 0.0
	for _, r := range reqs {
		if r.Arrival < prev || r.InputTokens <= 0 || r.OutputTokens <= 0 {
			t.Fatalf("bad request %+v", r)
		}
		prev = r.Arrival
	}
	if _, err := GenerateTrace("nope", 5, 50, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := GenerateTrace("sharegpt", rate, 50, 1); err == nil || !strings.Contains(err.Error(), "rate") {
			t.Fatalf("rate %v: err = %v, want a rate error", rate, err)
		}
	}
}

func TestEndToEndRun(t *testing.T) {
	srv, err := New(Config{System: "bullet", Dataset: "sharegpt"})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateTrace("sharegpt", 4, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 30 || len(res.PerRequest) != 30 {
		t.Fatalf("requests = %d/%d", res.Requests, len(res.PerRequest))
	}
	if res.MeanTTFT <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	for _, r := range res.PerRequest {
		if r.TTFT <= 0 || r.E2E < r.TTFT {
			t.Fatalf("bad per-request metrics %+v", r)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	trace, _ := GenerateTrace("azure-code", 2, 15, 3)
	for _, sys := range Systems() {
		srv, err := New(Config{System: sys, Dataset: "azure-code"})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		res, err := srv.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Requests != 15 {
			t.Fatalf("%s completed %d/15", sys, res.Requests)
		}
	}
}

func TestServerReusable(t *testing.T) {
	srv, _ := New(Config{})
	trace, _ := GenerateTrace("sharegpt", 3, 10, 1)
	a, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanTTFT != b.MeanTTFT || a.Makespan != b.Makespan {
		t.Fatal("re-running the same trace gave different results")
	}
}

func TestRunRejectsBadTraces(t *testing.T) {
	srv, _ := New(Config{})
	if _, err := srv.Run(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := srv.Run([]Request{
		{Arrival: 2, InputTokens: 10, OutputTokens: 2},
		{Arrival: 1, InputTokens: 10, OutputTokens: 2},
	}); err == nil || !strings.Contains(err.Error(), "arrives") {
		t.Fatalf("out-of-order trace accepted: %v", err)
	}
	if _, err := srv.Run([]Request{{Arrival: 1, InputTokens: 0, OutputTokens: 2}}); err == nil {
		t.Fatal("zero-token request accepted")
	}
	for _, at := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := srv.Run([]Request{{Arrival: at, InputTokens: 10, OutputTokens: 2}}); err == nil || !strings.Contains(err.Error(), "arrival") {
			t.Fatalf("arrival %v: err = %v, want an arrival error", at, err)
		}
	}
	// A request one token over the KV pool is an error naming it and the
	// pool's capacity; one exactly at capacity completes.
	capacity := serving.NewEnv(gpusim.A100(), srv.modelC, srv.dataset).KV.TotalTokens()
	for _, sys := range []string{"bullet", "vllm-1024"} {
		s, err := New(Config{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run([]Request{{Arrival: 0, InputTokens: capacity - 3, OutputTokens: 4}})
		if err == nil || !strings.Contains(err.Error(), "request 0") || !strings.Contains(err.Error(), strconv.Itoa(capacity)) {
			t.Fatalf("%s: request over the %d-token pool: err = %v, want one naming request 0 and the capacity", sys, capacity, err)
		}
		res, err := s.Run([]Request{{Arrival: 0, InputTokens: capacity - 4, OutputTokens: 4}})
		if err != nil || res.Requests != 1 {
			t.Fatalf("%s: request at the %d-token capacity: %d completed, err = %v", sys, capacity, res.Requests, err)
		}
	}
}

func TestListings(t *testing.T) {
	if len(Systems()) < 5 || len(Datasets()) != 3 || len(Models()) < 4 {
		t.Fatalf("listings: %v %v %v", Systems(), Datasets(), Models())
	}
}

func TestCompare(t *testing.T) {
	trace, _ := GenerateTrace("sharegpt", 4, 12, 1)
	out, err := Compare([]string{"bullet", "sglang-1024"}, "sharegpt", trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out["bullet"].Requests != 12 || out["sglang-1024"].Requests != 12 {
		t.Fatalf("compare = %v", out)
	}
	if _, err := Compare([]string{"nope"}, "sharegpt", trace); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestAlternativeModelPresets(t *testing.T) {
	for _, m := range []string{"llama-3.2-3b", "mistral-7b"} {
		srv, err := New(Config{Model: m, Dataset: "sharegpt"})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		trace, _ := GenerateTrace("sharegpt", 3, 8, 1)
		res, err := srv.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Requests != 8 {
			t.Fatalf("%s completed %d/8", m, res.Requests)
		}
	}
}

func TestStaticVariantAccepted(t *testing.T) {
	srv, err := New(Config{System: "bullet-sm84"})
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := GenerateTrace("sharegpt", 2, 8, 1)
	res, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.System != "bullet-sm84" {
		t.Fatalf("system = %s", res.System)
	}
}
