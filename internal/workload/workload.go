// Package workload generates serving request traces: per-dataset
// input/output length distributions matching the shapes published in the
// paper (Fig. 10) and Poisson arrival processes (§4.1).
//
// The real datasets (ShareGPT conversations, Azure production code
// completions, arXiv long-document summarization) are proprietary or
// external; per the substitution rule we model their published length
// CDFs with truncated lognormals. What the serving systems react to —
// short chatty inputs vs. long code contexts vs. very long documents with
// small outputs — is preserved.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/units"
)

// Request is one serving request of a trace.
type Request struct {
	ID           string
	Arrival      units.Seconds // seconds since trace start
	InputTokens  int
	OutputTokens int
	Dataset      string
	// PrefixGroup, when non-empty, marks the first PrefixTokens input
	// tokens as shared verbatim with every other request of the same
	// group (a system prompt or few-shot template), the situation
	// radix/prefix caches exploit.
	PrefixGroup  string
	PrefixTokens int
	// Tenant, when non-empty, is the service-class tag of the issuing
	// tenant ("premium", "standard", "best-effort"); the qos subsystem
	// maps it to a class, untagged requests default to standard.
	Tenant string
}

// Trace is a time-ordered request sequence.
type Trace struct {
	Dataset  string
	Rate     float64 // offered load in requests/second
	Seed     int64
	Requests []Request
}

// Duration returns the arrival time of the last request.
func (t *Trace) Duration() units.Seconds {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival
}

// TotalInputTokens sums input lengths.
func (t *Trace) TotalInputTokens() int {
	n := 0
	for _, r := range t.Requests {
		n += r.InputTokens
	}
	return n
}

// TotalOutputTokens sums output lengths.
func (t *Trace) TotalOutputTokens() int {
	n := 0
	for _, r := range t.Requests {
		n += r.OutputTokens
	}
	return n
}

// lengthDist is a truncated lognormal over token counts.
type lengthDist struct {
	median float64 // exp(mu)
	sigma  float64
	min    int
	max    int
}

func (d lengthDist) sample(rng *rand.Rand) int {
	v := d.median * math.Exp(d.sigma*rng.NormFloat64())
	n := int(math.Round(v))
	if n < d.min {
		n = d.min
	}
	if n > d.max {
		n = d.max
	}
	return n
}

// Dataset describes a named workload's length distributions.
type Dataset struct {
	Name   string
	input  lengthDist
	output lengthDist
}

// The three evaluation workloads of the paper (§4.1, Fig. 10).
var (
	// ShareGPT: real-world conversations; moderate inputs, chatty
	// outputs.
	ShareGPT = Dataset{
		Name:   "sharegpt",
		input:  lengthDist{median: 300, sigma: 1.1, min: 4, max: 8192},
		output: lengthDist{median: 180, sigma: 0.9, min: 4, max: 2048},
	}
	// AzureCode: production code completion; long prompts, very short
	// completions.
	AzureCode = Dataset{
		Name:   "azure-code",
		input:  lengthDist{median: 2048, sigma: 0.9, min: 64, max: 16384},
		output: lengthDist{median: 28, sigma: 0.8, min: 1, max: 512},
	}
	// ArxivSummary: long-document summarization; very long prompts,
	// moderate outputs.
	ArxivSummary = Dataset{
		Name:   "arxiv-summary",
		input:  lengthDist{median: 7500, sigma: 0.45, min: 512, max: 24576},
		output: lengthDist{median: 180, sigma: 0.45, min: 16, max: 1024},
	}
)

// Datasets lists the three evaluation workloads in paper order.
var Datasets = []Dataset{ShareGPT, AzureCode, ArxivSummary}

// ByName returns the dataset with the given name.
func ByName(name string) (Dataset, error) {
	for _, d := range Datasets {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// SampleInput draws an input length.
func (d Dataset) SampleInput(rng *rand.Rand) int { return d.input.sample(rng) }

// SampleOutput draws an output length.
func (d Dataset) SampleOutput(rng *rand.Rand) int { return d.output.sample(rng) }

// positive reports whether a generator parameter is finite and > 0 (NaN
// is not, so a NaN rate cannot yield NaN arrivals).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Generate produces a trace of n requests with Poisson arrivals at rate
// req/s, deterministically from seed.
func Generate(d Dataset, rate float64, n int, seed int64) *Trace {
	if !positive(rate) || n <= 0 {
		panic(fmt.Sprintf("workload: invalid trace rate=%v n=%d", rate, n))
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Dataset: d.Name, Rate: rate, Seed: seed, Requests: make([]Request, n)}
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		tr.Requests[i] = Request{
			ID:           fmt.Sprintf("%s-%d", d.Name, i),
			Arrival:      units.Seconds(t),
			InputTokens:  d.SampleInput(rng),
			OutputTokens: d.SampleOutput(rng),
			Dataset:      d.Name,
		}
	}
	return tr
}

// GenerateBursty produces a trace whose rate alternates between baseRate
// and burstFactor*baseRate every period seconds, exercising the dynamic
// re-provisioning scenario of Fig. 12.
func GenerateBursty(d Dataset, baseRate, burstFactor, period float64, n int, seed int64) *Trace {
	if !positive(baseRate) || !positive(burstFactor) || burstFactor < 1 || !positive(period) || n <= 0 {
		panic("workload: invalid bursty trace parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Dataset: d.Name, Rate: baseRate, Seed: seed, Requests: make([]Request, n)}
	t := 0.0
	for i := 0; i < n; i++ {
		rate := baseRate
		if math.Mod(t, 2*period) >= period {
			rate = baseRate * burstFactor
		}
		t += rng.ExpFloat64() / rate
		tr.Requests[i] = Request{
			ID:           fmt.Sprintf("%s-b%d", d.Name, i),
			Arrival:      units.Seconds(t),
			InputTokens:  d.SampleInput(rng),
			OutputTokens: d.SampleOutput(rng),
			Dataset:      d.Name,
		}
	}
	return tr
}

// GenerateShared produces a Poisson trace in which each request belongs
// to one of groups shared-prefix families with probability shareProb; the
// family's common prefix is prefixTokens long and counts toward the
// request's InputTokens.
func GenerateShared(d Dataset, rate float64, n int, seed int64, groups, prefixTokens int, shareProb float64) *Trace {
	if groups <= 0 || prefixTokens <= 0 || !(shareProb >= 0 && shareProb <= 1) {
		panic(fmt.Sprintf("workload: invalid shared-prefix parameters groups=%d prefix=%d p=%v",
			groups, prefixTokens, shareProb))
	}
	tr := Generate(d, rate, n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range tr.Requests {
		if rng.Float64() >= shareProb {
			continue
		}
		r := &tr.Requests[i]
		r.PrefixGroup = fmt.Sprintf("%s/sys%d", d.Name, rng.Intn(groups))
		r.PrefixTokens = prefixTokens
		if r.InputTokens < prefixTokens+1 {
			r.InputTokens = prefixTokens + 1 + rng.Intn(64)
		}
	}
	return tr
}

// TenantMix is the tenant composition of a mixed-class trace: the
// fraction of requests tagged with each class. Fractions must be
// nonnegative and sum to 1 (within rounding).
type TenantMix struct {
	Premium    float64
	Standard   float64
	BestEffort float64
}

// DefaultTenantMix is the ext-qos evaluation mix: a small premium
// population behind a large best-effort background.
func DefaultTenantMix() TenantMix {
	return TenantMix{Premium: 0.2, Standard: 0.3, BestEffort: 0.5}
}

// GenerateTenantMix produces a Poisson trace whose requests are tagged
// with tenant classes drawn from mix. The base trace is Generate(d,
// rate, n, seed) exactly — arrivals and lengths are untouched — and the
// class assignment uses an independent stream (seed+2), mirroring how
// GenerateShared layers prefix families, so tagging never perturbs the
// traffic the engines see.
func GenerateTenantMix(d Dataset, rate float64, n int, seed int64, mix TenantMix) *Trace {
	if mix.Premium < 0 || mix.Standard < 0 || mix.BestEffort < 0 {
		panic(fmt.Sprintf("workload: negative tenant mix %+v", mix))
	}
	total := mix.Premium + mix.Standard + mix.BestEffort
	if !(math.Abs(total-1) <= 1e-9) {
		panic(fmt.Sprintf("workload: tenant mix sums to %v, want 1: %+v", total, mix))
	}
	tr := Generate(d, rate, n, seed)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := range tr.Requests {
		u := rng.Float64()
		switch {
		case u < mix.Premium:
			tr.Requests[i].Tenant = "premium"
		case u < mix.Premium+mix.Standard:
			tr.Requests[i].Tenant = "standard"
		default:
			tr.Requests[i].Tenant = "best-effort"
		}
	}
	return tr
}

// GenerateGamma produces arrivals with a gamma-distributed inter-arrival
// time of the given coefficient of variation (cv=1 reduces to Poisson;
// cv>1 is burstier, cv<1 smoother), following the methodology of
// burstiness-sensitivity studies.
func GenerateGamma(d Dataset, rate, cv float64, n int, seed int64) *Trace {
	if !positive(rate) || n <= 0 || !positive(cv) {
		panic(fmt.Sprintf("workload: invalid gamma trace rate=%v cv=%v n=%d", rate, cv, n))
	}
	rng := rand.New(rand.NewSource(seed))
	// Gamma(shape k, scale θ): mean kθ, cv = 1/sqrt(k).
	k := 1 / (cv * cv)
	theta := 1 / (rate * k)
	sampleGamma := func() float64 {
		// Marsaglia–Tsang for k ≥ 1; boost for k < 1.
		kk := k
		boost := 1.0
		if kk < 1 {
			boost = math.Pow(rng.Float64(), 1/kk)
			kk++
		}
		dd := kk - 1.0/3.0
		c := 1 / math.Sqrt(9*dd)
		for {
			x := rng.NormFloat64()
			v := 1 + c*x
			if v <= 0 {
				continue
			}
			v = v * v * v
			u := rng.Float64()
			if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
				return boost * dd * v * theta
			}
		}
	}
	tr := &Trace{Dataset: d.Name, Rate: rate, Seed: seed, Requests: make([]Request, n)}
	t := 0.0
	for i := 0; i < n; i++ {
		t += sampleGamma()
		tr.Requests[i] = Request{
			ID:           fmt.Sprintf("%s-g%d", d.Name, i),
			Arrival:      units.Seconds(t),
			InputTokens:  d.SampleInput(rng),
			OutputTokens: d.SampleOutput(rng),
			Dataset:      d.Name,
		}
	}
	return tr
}

// CDF returns the empirical quantiles of a sample at the given probe
// points (each in [0,1]).
func CDF(samples []int, probes []float64) []int {
	if len(samples) == 0 {
		return make([]int, len(probes))
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	out := make([]int, len(probes))
	for i, p := range probes {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		idx := int(p * float64(len(s)-1))
		out[i] = s[idx]
	}
	return out
}

// InputLengths extracts the input lengths of a trace.
func (t *Trace) InputLengths() []int {
	out := make([]int, len(t.Requests))
	for i, r := range t.Requests {
		out[i] = r.InputTokens
	}
	return out
}

// OutputLengths extracts the output lengths of a trace.
func (t *Trace) OutputLengths() []int {
	out := make([]int, len(t.Requests))
	for i, r := range t.Requests {
		out[i] = r.OutputTokens
	}
	return out
}
