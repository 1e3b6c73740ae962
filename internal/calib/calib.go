// Package calib is the calibration harness of the sampled latency
// backend: it micro-benchmarks the model's kernels against the analytic
// simulator (SelfCalibrate) and fits the observations into the
// per-operator quantile tables gpusim.SampledBackend draws from
// (DESIGN.md §15).
package calib

import "repro/internal/units"

// Row is one calibration observation: operator op took Latency seconds
// at size coordinate Tokens.
type Row struct {
	Op      string
	Tokens  int
	Latency units.Seconds
}
