//linttest:path repro/internal/calib

// Pins the maporder contract on the calibration fit: operator tables are
// maps, so emitting sections or folding quantile floors straight out of
// range order is a finding; the collect-sort-range idiom the fit uses is
// the sanctioned shape.
package fixture

import "sort"

type calSupport struct {
	tokens int
}

// emitOps renders per-operator sections in map range order.
func emitOps(ops map[string][]calSupport) []string {
	var out []string
	for op := range ops { // want maporder
		out = append(out, op)
	}
	return out
}

// foldBuckets accumulates a fit statistic in map range order.
func foldBuckets(byTok map[int][]float64) float64 {
	floor := 0.0
	for _, samples := range byTok { // want maporder
		for _, s := range samples {
			if s > floor {
				floor = s
			}
		}
	}
	return floor
}

// sortedOps is the sanctioned idiom: collect keys, sort, then emit.
func sortedOps(ops map[string][]calSupport) []string {
	keys := make([]string, 0, len(ops))
	for k := range ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
