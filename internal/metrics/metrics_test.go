package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func req(arr, start, first, fin units.Seconds, in, out int) Request {
	return Request{
		ID: "r", Arrival: arr, PrefillStart: start, FirstToken: first,
		Finish: fin, InputTokens: in, OutputTokens: out,
	}
}

func TestRequestDerivedMetrics(t *testing.T) {
	r := req(0, 0.1, 0.5, 2.5, 1000, 21)
	if got := r.TTFT(); got != 0.5 {
		t.Fatalf("TTFT = %v", got)
	}
	if got := r.NormTTFTMs(); got != 0.5 {
		t.Fatalf("NormTTFT = %v ms/token, want 0.5", got)
	}
	if got := r.TPOT(); units.Abs(got-0.1) > 1e-12 {
		t.Fatalf("TPOT = %v, want 0.1", got)
	}
	if got := r.E2E(); got != 2.5 {
		t.Fatalf("E2E = %v", got)
	}
	if got := r.QueueDelay(); units.Abs(got-0.1) > 1e-12 {
		t.Fatalf("QueueDelay = %v", got)
	}
}

func TestSingleTokenRequestTPOT(t *testing.T) {
	r := req(0, 0, 1, 1, 10, 1)
	if r.TPOT() != 0 {
		t.Fatal("single-token request should have zero TPOT")
	}
}

func TestMeetsSLO(t *testing.T) {
	slo := SLO{NormTTFTMs: 1.5, TPOTMs: 200}
	good := req(0, 0, 1.0, 3.0, 1000, 11) // 1ms/token, 200ms TPOT
	if !good.MeetsSLO(slo) {
		t.Fatal("compliant request rejected")
	}
	slowPrefill := req(0, 0, 2.0, 4.0, 1000, 11) // 2ms/token
	if slowPrefill.MeetsSLO(slo) {
		t.Fatal("TTFT violator accepted")
	}
	slowDecode := req(0, 0, 1.0, 4.0, 1000, 11) // 300ms TPOT
	if slowDecode.MeetsSLO(slo) {
		t.Fatal("TPOT violator accepted")
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted timeline accepted")
		}
	}()
	req(5, 1, 2, 3, 10, 10).Validate()
}

func TestSLOFor(t *testing.T) {
	if s := SLOFor("azure-code"); s.NormTTFTMs != 1.5 || s.TPOTMs != 200 {
		t.Fatalf("azure-code SLO = %+v", s)
	}
	if s := SLOFor("sharegpt"); s.NormTTFTMs != 3.0 || s.TPOTMs != 150 {
		t.Fatalf("sharegpt SLO = %+v", s)
	}
	if s := SLOFor("arxiv-summary"); s.NormTTFTMs != 1.5 || s.TPOTMs != 175 {
		t.Fatalf("arxiv SLO = %+v", s)
	}
	if s := SLOFor("unknown"); s != SLOFor("sharegpt") {
		t.Fatal("unknown dataset should default to sharegpt")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("p50 = %v, want 2.5", got)
	}
	if !math.IsNaN(Percentile[float64](nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated input")
	}
}

func TestSummarize(t *testing.T) {
	slo := SLO{NormTTFTMs: 2, TPOTMs: 100}
	reqs := []Request{
		req(0, 0, 0.1, 1.0, 100, 11),  // 1ms/tok, 90ms TPOT: meets
		req(1, 1, 1.5, 4.0, 100, 11),  // 5ms/tok: violates TTFT
		req(2, 2, 2.1, 5.0, 100, 11),  // 1ms/tok, 290ms TPOT: violates TPOT
		req(3, 3, 3.05, 3.9, 100, 11), // meets
	}
	s := Summarize(reqs, slo)
	if s.Requests != 4 {
		t.Fatalf("requests = %d", s.Requests)
	}
	if math.Abs(s.SLOAttainment-0.5) > 1e-12 {
		t.Fatalf("attainment = %v, want 0.5", s.SLOAttainment)
	}
	if units.Abs(s.Duration-5.0) > 1e-12 {
		t.Fatalf("duration = %v, want 5", s.Duration)
	}
	if math.Abs(s.Throughput-4.0/5.0) > 1e-12 {
		t.Fatalf("throughput = %v", s.Throughput)
	}
	if math.Abs(s.TokenThroughput-44.0/5.0) > 1e-12 {
		t.Fatalf("token throughput = %v", s.TokenThroughput)
	}
	if s.MeanTTFT <= 0 || s.P90TTFT < s.MeanTTFT/10 {
		t.Fatalf("ttft stats: %+v", s)
	}
	if math.Abs(s.Goodput-2.0/5.0) > 1e-12 {
		t.Fatalf("goodput = %v, want 0.4 (2 SLO-met over 5s)", s.Goodput)
	}
	if e := Summarize(nil, slo); e.Requests != 0 {
		t.Fatal("empty summarize")
	}
}

func TestResilienceAddAndMTTR(t *testing.T) {
	a := Resilience{FaultsInjected: 3, BatchAborts: 1, Retried: 2, Shed: 1, Recoveries: 2, Downtime: 4}
	b := Resilience{FaultsInjected: 1, Retried: 1, Recoveries: 2, Downtime: 2}
	a.Add(b)
	want := Resilience{FaultsInjected: 4, BatchAborts: 1, Retried: 3, Shed: 1, Recoveries: 4, Downtime: 6}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
	if (Resilience{Downtime: 5}).MTTR() != 0 {
		t.Fatal("MTTR with zero recoveries should be 0")
	}
}

// TestResilienceMTTRPrefersAttributedTime is the overlapping-crash
// regression: two scheduled 4s outages whose windows overlap fold into
// ~5s of actual repair work, and MTTR must reflect the attributed time,
// not the scheduled sum.
func TestResilienceMTTRPrefersAttributedTime(t *testing.T) {
	r := Resilience{Recoveries: 2, Downtime: 8, RecoveryTime: 5}
	if got := r.MTTR(); units.Abs(got-2.5) > 1e-12 {
		t.Fatalf("MTTR = %v, want 2.5 (RecoveryTime/Recoveries)", got)
	}
	// Recovered counts one repair with its time.
	r.Recovered(3.5)
	if r.Recoveries != 3 || r.RecoveryTime != 8.5 {
		t.Fatalf("after Recovered(3.5): %d recoveries over %v, want 3 over 8.5s", r.Recoveries, r.RecoveryTime)
	}
}

// TestResilienceAddRouterCounters: the router-tier growth fields must
// survive aggregation.
func TestResilienceAddRouterCounters(t *testing.T) {
	a := Resilience{
		RecoveryTime: 1, BreakerOpens: 2, BreakerCloses: 1, Hedges: 3, HedgeWins: 1,
		RateLimited: 4, RateLimitedByClass: [3]int{1, 2, 1}, Drains: 1, Handoffs: 5, LinkFaults: 6,
	}
	a.Add(a)
	want := Resilience{
		RecoveryTime: 2, BreakerOpens: 4, BreakerCloses: 2, Hedges: 6, HedgeWins: 2,
		RateLimited: 8, RateLimitedByClass: [3]int{2, 4, 2}, Drains: 2, Handoffs: 10, LinkFaults: 12,
	}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestSeriesAtAndResample(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(4, 40)
	if got := s.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %v, want 0 (before first)", got)
	}
	if got := s.At(1); got != 10 {
		t.Fatalf("At(1) = %v", got)
	}
	if got := s.At(3); got != 20 {
		t.Fatalf("At(3) = %v (step hold)", got)
	}
	if got := s.At(5); got != 40 {
		t.Fatalf("At(5) = %v", got)
	}
	r := s.Resample(1, 4, 4)
	want := []float64{10, 20, 20, 40}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("resample = %v, want %v", r, want)
		}
	}
}

func TestSeriesDuplicateTimes(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(1, 15)
	if got := s.At(1); got != 15 {
		t.Fatalf("At(1) = %v, want latest sample 15", got)
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	var s Series
	s.Add(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time accepted")
		}
	}()
	s.Add(1, 1)
}

// sortedPercentile is the reference PercentileInPlace selects against:
// the same interpolation over a fully sorted copy.
func sortedPercentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	slices.Sort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// FuzzPercentileInPlace checks the selection against a full sort, bit for
// bit. Two NaNs count as equal, and so do +0 and -0: elements tied under
// cmp.Less are interchangeable to slices.Sort too, which does not keep
// their input order, so a tied rank may hold either zero or any NaN.
func FuzzPercentileInPlace(f *testing.F) {
	add := func(q uint16, xs ...float64) {
		raw := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
		f.Add(raw, q)
	}
	nan, inf := math.NaN(), math.Inf(1)
	add(0, 1)
	add(math.MaxUint16, 2)
	add(30000, 2, 1)
	add(math.MaxUint16/2, 3, 1, 2)
	add(59000, nan, 1, 2)
	add(12000, inf, -inf, 0)
	add(40000, nan, nan, 5)
	add(50000, 2, 2, 2, 2, 1, 2)
	add(65000, -inf, nan, inf, 3, 3, nan, -inf)
	add(0, 2, nan, 1)
	add(math.MaxUint16, nan, 1, inf, 3)
	add(16384, 1, nan, nan, 2)
	perm := make([]float64, 64)
	for i := range perm {
		perm[i] = float64((i * 37) % 64)
	}
	add(58982, perm...)
	f.Fuzz(func(t *testing.T, raw []byte, q uint16) {
		if len(raw) > 8*256 {
			return
		}
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		for _, p := range []float64{float64(q) / math.MaxUint16, 0.5, 0.9, 0.99} {
			want := sortedPercentile(xs, p)
			got := PercentileInPlace(slices.Clone(xs), p)
			same := math.Float64bits(got) == math.Float64bits(want) ||
				(math.IsNaN(got) && math.IsNaN(want)) || (got == 0 && want == 0)
			if !same {
				t.Fatalf("PercentileInPlace(%v, %v) = %v, sorted reference %v", xs, p, got, want)
			}
		}
	})
}

// Property: Percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64, nU uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nU%50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0001; p += 0.1 {
			v := Percentile(xs, math.Min(p, 1))
			if v < prev-1e-12 || v < sorted[0]-1e-12 || v > sorted[n-1]+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SLO attainment is always in [0,1] and consistent with a direct
// count.
func TestPropertySLOAttainment(t *testing.T) {
	f := func(seed int64, nU uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nU%40) + 1
		slo := SLO{NormTTFTMs: 2, TPOTMs: 100}
		reqs := make([]Request, n)
		met := 0
		for i := range reqs {
			arr := units.Seconds(i)
			first := arr + units.Seconds(rng.Float64())
			fin := first + units.Seconds(rng.Float64()*3)
			reqs[i] = req(arr, arr, first, fin, rng.Intn(2000)+1, rng.Intn(100)+2)
			if reqs[i].MeetsSLO(slo) {
				met++
			}
		}
		s := Summarize(reqs, slo)
		return math.Abs(s.SLOAttainment-float64(met)/float64(n)) < 1e-12 &&
			s.SLOAttainment >= 0 && s.SLOAttainment <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 1000)
	for i := range reqs {
		arr := units.Seconds(float64(i) * 0.05)
		first := arr + units.Seconds(rng.Float64())
		reqs[i] = req(arr, arr, first, first+units.Seconds(rng.Float64()*5), 500, 100)
	}
	slo := SLOFor("sharegpt")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Summarize(reqs, slo)
	}
}

func TestKVTransferDelay(t *testing.T) {
	r := req(0, 0.1, 0.5, 2.5, 1000, 21)
	r.DecodeStart = 0.7
	if got := r.KVTransferDelay(); units.Abs(got-0.2) > 1e-12 {
		t.Fatalf("KVTransferDelay = %v, want 0.2", got)
	}
	// Decode never ran (single-step request): no hand-off cost.
	r.DecodeStart = 0
	if got := r.KVTransferDelay(); got != 0 {
		t.Fatalf("KVTransferDelay = %v, want 0 without decode", got)
	}
}

func TestNormTTFTZeroInputTokens(t *testing.T) {
	r := req(0, 0, 1, 2, 0, 5)
	if got := r.NormTTFTMs(); got != 0 {
		t.Fatalf("NormTTFTMs = %v, want 0 with no input tokens", got)
	}
}

func TestValidatePanicCases(t *testing.T) {
	valid := req(0, 0.1, 0.5, 2.5, 1000, 21)
	valid.DecodeStart = 0.7
	valid.Validate() // must not panic
	for name, r := range map[string]Request{
		"decode before first token": func() Request {
			r := valid
			r.DecodeStart = 0.3
			return r
		}(),
		"decode after finish": func() Request {
			r := valid
			r.DecodeStart = 3.0
			return r
		}(),
		"no tokens": req(0, 0.1, 0.5, 2.5, 0, 0),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			r.Validate()
		}()
	}
}

func TestPressureAdd(t *testing.T) {
	a := Pressure{
		AdmissionsDeferred: 1, Preemptions: 2, Recomputes: 3, RecomputedTokens: 4,
		Retransfers: 5, RetransferredBytes: 6, Shed: 7, KVShrinks: 8, PeakOccupancy: 0.5,
	}
	b := a
	b.PeakOccupancy = 0.9
	a.Add(b)
	if a.AdmissionsDeferred != 2 || a.Preemptions != 4 || a.Recomputes != 6 ||
		a.RecomputedTokens != 8 || a.Retransfers != 10 || a.RetransferredBytes != 12 ||
		a.Shed != 14 || a.KVShrinks != 16 {
		t.Fatalf("sum: %+v", a)
	}
	if a.PeakOccupancy != 0.9 {
		t.Fatalf("peak = %v, want max 0.9", a.PeakOccupancy)
	}
	// Max must not regress when the accumulator already holds the peak.
	a.Add(Pressure{PeakOccupancy: 0.1})
	if a.PeakOccupancy != 0.9 {
		t.Fatalf("peak regressed to %v", a.PeakOccupancy)
	}
}
