package calib

import (
	"fmt"
	"sort"

	"repro/internal/gpusim"
	"repro/internal/units"
)

// quantileLevels is the grid size per support: min, q25, median, q75
// and max of the samples, with no tail trimmed.
const quantileLevels = 5

// Fit turns calibration rows collected at refSMs SMs into a
// sampled-backend latency table: per (operator, tokens) bucket it fits
// an empirical quantile grid, then enforces monotonicity across token
// supports per quantile level (isotonic cumulative max) — the invariant
// that makes sampled latencies monotone non-decreasing in token count
// at any fixed draw.
func Fit(rows []Row, refSMs int) (*gpusim.LatencyTable, error) {
	if refSMs <= 0 {
		return nil, fmt.Errorf("calib: fit: non-positive RefSMs %d", refSMs)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("calib: fit: no rows")
	}

	buckets := map[string]map[int][]float64{}
	for i, r := range rows {
		if r.Op == "" {
			return nil, fmt.Errorf("calib: fit: row %d: empty operator", i)
		}
		if r.Tokens <= 0 {
			return nil, fmt.Errorf("calib: fit: row %d: operator %q: non-positive tokens %d", i, r.Op, r.Tokens)
		}
		if units.IsNaN(r.Latency) || units.IsInf(r.Latency, 0) || r.Latency <= 0 {
			return nil, fmt.Errorf("calib: fit: row %d: operator %q: bad latency %v", i, r.Op, r.Latency)
		}
		byTok := buckets[r.Op]
		if byTok == nil {
			byTok = map[int][]float64{}
			buckets[r.Op] = byTok
		}
		byTok[r.Tokens] = append(byTok[r.Tokens], r.Latency.Float())
	}

	table := &gpusim.LatencyTable{RefSMs: refSMs, Ops: map[string][]gpusim.OpSupport{}}
	for _, op := range sortedKeys(buckets) {
		byTok := buckets[op]
		toks := make([]int, 0, len(byTok))
		for t := range byTok {
			toks = append(toks, t)
		}
		sort.Ints(toks)
		supports := make([]gpusim.OpSupport, 0, len(toks))
		floor := make([]units.Seconds, quantileLevels)
		for _, t := range toks {
			samples := byTok[t]
			sort.Float64s(samples)
			grid := make([]units.Seconds, quantileLevels)
			for j := range grid {
				level := float64(j) / float64(quantileLevels-1)
				grid[j] = units.Seconds(empiricalQuantile(samples, level))
			}
			// Isotonic step: a larger token bucket may never undercut a
			// smaller one at the same quantile level.
			for j := range grid {
				grid[j] = units.Max(grid[j], floor[j])
				floor[j] = grid[j]
			}
			supports = append(supports, gpusim.OpSupport{Tokens: t, Q: grid})
		}
		table.Ops[op] = supports
	}
	if err := table.Validate(); err != nil {
		return nil, fmt.Errorf("calib: fit: %v", err)
	}
	return table, nil
}

// empiricalQuantile evaluates the sorted sample set at level p with
// linear interpolation (type-7 estimator).
func empiricalQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}

// sortedKeys returns a string-keyed map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
