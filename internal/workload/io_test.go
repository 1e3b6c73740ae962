package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := Generate(ShareGPT, 5, 40, 3)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dataset != tr.Dataset || back.Rate != tr.Rate || len(back.Requests) != len(tr.Requests) {
		t.Fatalf("header mismatch: %+v", back)
	}
	for i := range tr.Requests {
		if back.Requests[i] != tr.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestReadValidates(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty", `{"dataset":"x","requests":[]}`},
		{"zero tokens", `{"dataset":"x","requests":[{"ID":"a","Arrival":1,"InputTokens":0,"OutputTokens":1}]}`},
		{"negative arrival", `{"dataset":"x","requests":[{"ID":"a","Arrival":-1,"InputTokens":5,"OutputTokens":1}]}`},
		{"duplicate ids", `{"dataset":"x","requests":[
			{"ID":"a","Arrival":1,"InputTokens":5,"OutputTokens":1},
			{"ID":"a","Arrival":2,"InputTokens":5,"OutputTokens":1}]}`},
		{"garbage", `{{{`},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.json)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestReadSortsAndFillsDefaults(t *testing.T) {
	in := `{"dataset":"sharegpt","requests":[
		{"Arrival":2,"InputTokens":5,"OutputTokens":1},
		{"Arrival":1,"InputTokens":6,"OutputTokens":2}]}`
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests[0].Arrival != 1 || tr.Requests[1].Arrival != 2 {
		t.Fatal("not sorted")
	}
	for _, r := range tr.Requests {
		if r.ID == "" || r.Dataset != "sharegpt" {
			t.Fatalf("defaults not filled: %+v", r)
		}
	}
}

func TestGenerateGammaCV(t *testing.T) {
	// Empirical CV of inter-arrival gaps should track the requested CV.
	for _, cv := range []float64{0.5, 1.0, 2.0} {
		tr := GenerateGamma(ShareGPT, 10, cv, 20000, 9)
		var gaps []float64
		prev := units.Seconds(0)
		for _, r := range tr.Requests {
			gaps = append(gaps, (r.Arrival - prev).Float())
			prev = r.Arrival
		}
		mean, varsum := 0.0, 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		got := math.Sqrt(varsum/float64(len(gaps))) / mean
		if math.Abs(got-cv)/cv > 0.1 {
			t.Errorf("cv = %v, want %v", got, cv)
		}
		// Mean rate ≈ 10 req/s.
		if rate := 1 / mean; math.Abs(rate-10)/10 > 0.1 {
			t.Errorf("rate = %v, want 10", rate)
		}
	}
}

func TestGammaPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	GenerateGamma(ShareGPT, 1, 0, 10, 1)
}

// TestGeneratorsPanicOnNonFiniteArgs: a NaN or infinite rate (or mix
// fraction) is rejected with a message rather than yielding NaN
// arrivals.
func TestGeneratorsPanicOnNonFiniteArgs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, gen := range map[string]func(){
		"poisson nan":    func() { Generate(ShareGPT, nan, 10, 1) },
		"poisson inf":    func() { Generate(ShareGPT, inf, 10, 1) },
		"gamma nan rate": func() { GenerateGamma(ShareGPT, nan, 1, 10, 1) },
		"gamma nan cv":   func() { GenerateGamma(ShareGPT, 1, nan, 10, 1) },
		"bursty nan":     func() { GenerateBursty(ShareGPT, 1, nan, 1, 10, 1) },
		"shared nan":     func() { GenerateShared(ShareGPT, 1, 10, 1, 2, 8, nan) },
		"tenant mix nan": func() { GenerateTenantMix(ShareGPT, 1, 10, 1, TenantMix{Premium: nan}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "workload: ") {
					t.Errorf("%s: panic %q, want a workload: message", name, msg)
				}
			}()
			gen()
		}()
	}
}
