// Package metrics defines the serving quality measurements of the paper's
// evaluation (§4.1): TTFT, normalized TTFT, TPOT, end-to-end latency,
// throughput, and SLO attainment (goodput), plus timeline series for the
// breakdown figures.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// SLO is a latency requirement pair (Table 2). TTFT is normalized by
// input length (ms per input token), following LoongServe, because raw
// TTFT scales with sequence length.
type SLO struct {
	NormTTFTMs float64 // ms per input token, P90 target
	TPOTMs     float64 // ms per output token, P90 target
}

// Table 2 of the paper.
var slos = map[string]SLO{
	"sharegpt":      {NormTTFTMs: 3.0, TPOTMs: 150},
	"azure-code":    {NormTTFTMs: 1.5, TPOTMs: 200},
	"arxiv-summary": {NormTTFTMs: 1.5, TPOTMs: 175},
}

// SLOFor returns the paper's latency requirements for a dataset,
// defaulting to the ShareGPT targets for unknown names.
func SLOFor(dataset string) SLO {
	if s, ok := slos[dataset]; ok {
		return s
	}
	return slos["sharegpt"]
}

// Request records the lifecycle timestamps of one served request. All
// times are unit-typed simulation seconds.
type Request struct {
	ID           string
	Dataset      string
	Arrival      units.Seconds
	PrefillStart units.Seconds
	FirstToken   units.Seconds // completion of prefill (first output token)
	DecodeStart  units.Seconds // first decode step (zero if decode never ran)
	Finish       units.Seconds // last output token
	InputTokens  int
	OutputTokens int
	// Tenant is the service-class tag carried from the workload request
	// (empty for single-tenant traces).
	Tenant string
}

// TTFT is time-to-first-token, measured from arrival (queueing included).
func (r Request) TTFT() units.Seconds { return r.FirstToken - r.Arrival }

// NormTTFTMs is TTFT in milliseconds per input token.
func (r Request) NormTTFTMs() float64 {
	if r.InputTokens <= 0 {
		return 0
	}
	return r.TTFT().Ms() / float64(r.InputTokens)
}

// TPOT is the mean time per output token after the first.
func (r Request) TPOT() units.Seconds {
	if r.OutputTokens <= 1 {
		return 0
	}
	return units.Over(r.Finish-r.FirstToken, float64(r.OutputTokens-1))
}

// TPOTMs is TPOT in milliseconds.
func (r Request) TPOTMs() float64 { return r.TPOT().Ms() }

// E2E is the total request latency.
func (r Request) E2E() units.Seconds { return r.Finish - r.Arrival }

// QueueDelay is the time from arrival to prefill start.
func (r Request) QueueDelay() units.Seconds { return r.PrefillStart - r.Arrival }

// KVTransferDelay is the gap between prefill completion and the first
// decode step — the engine hand-off cost. Zero when decode never ran
// (single-step requests completed at prefill).
func (r Request) KVTransferDelay() units.Seconds {
	if r.DecodeStart <= 0 {
		return 0
	}
	return r.DecodeStart - r.FirstToken
}

// MeetsSLO reports whether the request satisfies both constraints.
func (r Request) MeetsSLO(s SLO) bool {
	return r.NormTTFTMs() <= s.NormTTFTMs && r.TPOTMs() <= s.TPOTMs
}

// Validate panics on physically impossible timestamps; engines call it to
// catch bookkeeping bugs early.
func (r Request) Validate() {
	if r.PrefillStart < r.Arrival || r.FirstToken < r.PrefillStart || r.Finish < r.FirstToken {
		panic(fmt.Sprintf("metrics: request %s has inverted timeline: %+v", r.ID, r))
	}
	if 0 < r.DecodeStart && (r.DecodeStart < r.FirstToken || r.Finish < r.DecodeStart) {
		panic(fmt.Sprintf("metrics: request %s decode start outside [firstToken, finish]: %+v", r.ID, r))
	}
	if r.InputTokens <= 0 || r.OutputTokens <= 0 {
		panic(fmt.Sprintf("metrics: request %s has no tokens: %+v", r.ID, r))
	}
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation, preserving the element type (plain float64 or any
// float64-backed unit type). An empty slice yields NaN. The input is
// copied; hot paths that own a scratch buffer should use
// PercentileInPlace instead.
func Percentile[F ~float64](xs []F, p float64) F {
	s := append([]F(nil), xs...)
	return PercentileInPlace(s, p)
}

// PercentileInPlace is Percentile without the defensive copy: it may
// reorder xs, without fully sorting it, to select the two order
// statistics it interpolates. It exists for per-cycle callers (the
// scheduler's SLO predictions) that reuse a scratch buffer and cannot
// afford an allocation per call. Elements are ordered by cmp.Less, NaN
// first, as slices.Sort orders them, so the result is the value a full
// sort would interpolate.
func PercentileInPlace[F ~float64](s []F, p float64) F {
	if len(s) == 0 {
		return F(math.NaN())
	}
	if p <= 0 {
		return least(s)
	}
	if p >= 1 {
		return greatest(s)
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return greatest(s)
	}
	selectNth(s, lo)
	return F(float64(s[lo])*(1-frac) + float64(least(s[lo+1:]))*frac)
}

// selectNth reorders s so that s[k] holds the element a full sort would
// put there, with nothing after it less and nothing before it greater: a
// quickselect with Hoare partitioning around a median-of-three pivot.
func selectNth[F ~float64](s []F, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp.Less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if cmp.Less(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if cmp.Less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for cmp.Less(s[i], pivot) {
				i++
			}
			for cmp.Less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi], and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// least returns the first least element of a non-empty s under cmp.Less.
func least[F ~float64](s []F) F {
	m := s[0]
	for _, x := range s[1:] {
		if cmp.Less(x, m) {
			m = x
		}
	}
	return m
}

// greatest returns the first greatest element of a non-empty s under
// cmp.Less.
func greatest[F ~float64](s []F) F {
	m := s[0]
	for _, x := range s[1:] {
		if cmp.Less(m, x) {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean, NaN if empty. Like Percentile it is
// dimension-preserving over any float64-backed element type.
func Mean[F ~float64](xs []F) F {
	if len(xs) == 0 {
		return F(math.NaN())
	}
	sum := 0.0
	for _, x := range xs {
		sum += float64(x)
	}
	return F(sum / float64(len(xs)))
}

// Summary aggregates a completed run, matching the panels of Fig. 11.
type Summary struct {
	Requests int
	Duration units.Seconds // makespan: first arrival to last finish

	MeanTTFT     units.Seconds
	P90TTFT      units.Seconds
	MeanNormTTFT float64 // ms/token
	P90NormTTFT  float64
	MeanTPOTMs   float64
	P90TPOTMs    float64
	MeanE2E      units.Seconds
	MeanQueue    units.Seconds

	Throughput      float64 // completed requests per second
	TokenThroughput float64 // output tokens per second
	SLOAttainment   float64 // fraction of requests meeting both SLOs
	Goodput         float64 // SLO-meeting requests per second
}

// Summarize computes a Summary over completed requests against an SLO.
func Summarize(reqs []Request, slo SLO) Summary {
	if len(reqs) == 0 {
		return Summary{}
	}
	var ttft, e2e, queue []units.Seconds
	var norm, tpot []float64
	firstArrival := units.Inf[units.Seconds](1)
	lastFinish := units.Inf[units.Seconds](-1)
	met := 0
	outTokens := 0
	for _, r := range reqs {
		ttft = append(ttft, r.TTFT())
		norm = append(norm, r.NormTTFTMs())
		if r.OutputTokens > 1 {
			tpot = append(tpot, r.TPOTMs())
		}
		e2e = append(e2e, r.E2E())
		queue = append(queue, r.QueueDelay())
		if r.MeetsSLO(slo) {
			met++
		}
		outTokens += r.OutputTokens
		firstArrival = units.Min(firstArrival, r.Arrival)
		lastFinish = units.Max(lastFinish, r.Finish)
	}
	dur := lastFinish - firstArrival
	s := Summary{
		Requests:      len(reqs),
		Duration:      dur,
		MeanTTFT:      Mean(ttft),
		P90TTFT:       Percentile(ttft, 0.9),
		MeanNormTTFT:  Mean(norm),
		P90NormTTFT:   Percentile(norm, 0.9),
		MeanE2E:       Mean(e2e),
		MeanQueue:     Mean(queue),
		SLOAttainment: float64(met) / float64(len(reqs)),
	}
	if len(tpot) > 0 {
		s.MeanTPOTMs = Mean(tpot)
		s.P90TPOTMs = Percentile(tpot, 0.9)
	}
	if dur > 0 {
		s.Throughput = float64(len(reqs)) / dur.Float()
		s.TokenThroughput = float64(outTokens) / dur.Float()
		s.Goodput = float64(met) / dur.Float()
	}
	return s
}

// TenantSummary is one tenant's slice of a run, evaluated against that
// tenant's own (possibly relaxed) SLO.
type TenantSummary struct {
	Tenant string
	SLO    SLO
	Summary
}

// SummarizeByTenant groups completed requests by tenant tag and
// summarizes each group against the SLO sloFor returns for that tag.
// Results are sorted by tenant tag so rendering is deterministic.
func SummarizeByTenant(reqs []Request, sloFor func(tenant string) SLO) []TenantSummary {
	byTenant := make(map[string][]Request)
	for _, r := range reqs {
		byTenant[r.Tenant] = append(byTenant[r.Tenant], r)
	}
	tenants := make([]string, 0, len(byTenant))
	for t := range byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	out := make([]TenantSummary, len(tenants))
	for i, t := range tenants {
		slo := sloFor(t)
		out[i] = TenantSummary{Tenant: t, SLO: slo, Summary: Summarize(byTenant[t], slo)}
	}
	return out
}

// Resilience aggregates fault-injection and recovery accounting for one
// serving run (or, summed, one cluster).
type Resilience struct {
	// FaultsInjected counts fault events that actually fired.
	FaultsInjected int
	// BatchAborts counts watchdog-cancelled prefill batches.
	BatchAborts int
	// Retried counts request re-executions (watchdog re-enqueues and
	// failover re-submissions); one request may contribute several.
	Retried int
	// Shed counts requests given up on after exhausting retries.
	Shed int
	// Recoveries counts completed repairs (SM health restorations,
	// link restorations, and replica restarts/readmissions).
	Recoveries int
	// Downtime is the injected outage volume (degrade durations, stall
	// lengths, recovery delays), summed over scheduled events — events
	// that never completed a repair (dropped, or folded into an
	// already-open outage) included.
	Downtime units.Seconds
	// RecoveryTime is the actual elapsed repair time attributed per
	// completed recovery event. Unlike Downtime it excludes fault
	// events that never recovered, so MTTR stays truthful when
	// cascading faults overlap (see MTTR).
	RecoveryTime units.Seconds

	// Router-tier resilience counters (internal/cluster, DESIGN.md §16).

	// BreakerOpens / BreakerCloses count per-replica circuit-breaker
	// closed→open trips and open→closed recoveries.
	BreakerOpens  int
	BreakerCloses int
	// Hedges counts hedged re-dispatch copies; HedgeWins counts copies
	// that finished before their primaries.
	Hedges    int
	HedgeWins int
	// RateLimited counts router admissions rejected by the per-tenant
	// token buckets; RateLimitedByClass splits it by service class,
	// indexed by qos.Class order (best-effort, standard, premium —
	// metrics cannot import qos without a cycle, so the indices are by
	// convention).
	RateLimited        int
	RateLimitedByClass [3]int
	// Drains counts graceful replica drain/restart cycles started;
	// Handoffs counts waiting requests handed off to peers during them.
	Drains   int
	Handoffs int
	// LinkFaults counts link degradation/loss events applied.
	LinkFaults int
}

// Add accumulates another run's counters into r.
func (r *Resilience) Add(o Resilience) {
	r.FaultsInjected += o.FaultsInjected
	r.BatchAborts += o.BatchAborts
	r.Retried += o.Retried
	r.Shed += o.Shed
	r.Recoveries += o.Recoveries
	r.Downtime += o.Downtime
	r.RecoveryTime += o.RecoveryTime
	r.BreakerOpens += o.BreakerOpens
	r.BreakerCloses += o.BreakerCloses
	r.Hedges += o.Hedges
	r.HedgeWins += o.HedgeWins
	r.RateLimited += o.RateLimited
	for c := range r.RateLimitedByClass {
		r.RateLimitedByClass[c] += o.RateLimitedByClass[c]
	}
	r.Drains += o.Drains
	r.Handoffs += o.Handoffs
	r.LinkFaults += o.LinkFaults
}

// Recovered records one completed repair and attributes its elapsed
// repair time, so MTTR stays correct when fault windows overlap.
func (r *Resilience) Recovered(took units.Seconds) {
	r.Recoveries++
	r.RecoveryTime += took
}

// MTTR returns the mean time to recover: the attributed repair time per
// completed recovery, zero without one. Every recovery records its time
// through Recovered, so cascading faults that fold several scheduled
// outages into one repair count that repair once.
func (r Resilience) MTTR() units.Seconds {
	if r.Recoveries == 0 {
		return 0
	}
	return units.Over(r.RecoveryTime, float64(r.Recoveries))
}

// Pressure aggregates the memory-pressure subsystem's accounting for one
// serving run (or, summed, one cluster): admission-control outcomes,
// decode preemptions, and the two recovery paths.
type Pressure struct {
	// AdmissionsDeferred counts prefill admissions pushed back by the
	// high-watermark gate (one request may contribute several).
	AdmissionsDeferred int
	// Preemptions counts decode sequences evicted under high watermark.
	Preemptions int
	// Recomputes / RecomputedTokens count preempted requests restored by
	// re-running their prefill, and the tokens recomputed doing so.
	Recomputes       int
	RecomputedTokens int
	// Retransfers / RetransferredBytes count preempted requests restored
	// by re-transferring their KV through the metadata buffer.
	Retransfers        int
	RetransferredBytes units.Bytes
	// Shed counts requests given up on by the pressure subsystem: hopeless
	// admissions and requests preempted past the retry budget.
	Shed int
	// KVShrinks counts live capacity-reduction faults applied to the pool.
	KVShrinks int
	// PeakOccupancy is the highest used/total block ratio observed at a
	// pressure decision point (above 1.0 while a shrink drain was
	// over-committed).
	PeakOccupancy float64
}

// Add accumulates another run's counters into p (peak occupancy takes
// the max).
func (p *Pressure) Add(o Pressure) {
	p.AdmissionsDeferred += o.AdmissionsDeferred
	p.Preemptions += o.Preemptions
	p.Recomputes += o.Recomputes
	p.RecomputedTokens += o.RecomputedTokens
	p.Retransfers += o.Retransfers
	p.RetransferredBytes += o.RetransferredBytes
	p.Shed += o.Shed
	p.KVShrinks += o.KVShrinks
	if o.PeakOccupancy > p.PeakOccupancy {
		p.PeakOccupancy = o.PeakOccupancy
	}
}

// Series is a time-ordered sampled signal for timeline figures (Fig. 12).
type Series struct {
	T []units.Seconds
	V []float64
}

// Add appends a sample; time must be nondecreasing.
func (s *Series) Add(t units.Seconds, v float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic(fmt.Sprintf("metrics: series time went backwards: %v after %v", t, s.T[n-1]))
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// At returns the most recent value at or before t (step interpolation),
// or 0 before the first sample.
func (s *Series) At(t units.Seconds) float64 {
	// Search returns the first index with T[i] >= t, so T[i] <= t holds
	// exactly when T[i] == t — an ordering comparison stands in for exact
	// float equality.
	i := sort.Search(len(s.T), func(i int) bool { return s.T[i] >= t })
	if i < len(s.T) && s.T[i] <= t {
		// Return the last sample at exactly t.
		for i+1 < len(s.T) && s.T[i+1] <= t {
			i++
		}
		return s.V[i]
	}
	if i == 0 {
		return 0
	}
	return s.V[i-1]
}

// Resample returns the series evaluated at n evenly spaced points over
// [t0, t1].
func (s *Series) Resample(t0, t1 units.Seconds, n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = s.At(t0)
		return out
	}
	for i := 0; i < n; i++ {
		t := t0 + units.Over(units.Scale(t1-t0, float64(i)), float64(n-1))
		out[i] = s.At(t)
	}
	return out
}
