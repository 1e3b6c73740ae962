//linttest:path repro/internal/calib

// Pins the unitsafe contract on the calibration harness: observed
// latencies become units.Seconds exactly once, at the boundary, so raw
// numeric literals at unit-typed call sites and bare-float laundering
// are findings while boundary constructions and Ms() reads are not.
package fixture

import "repro/internal/units"

type calRow struct {
	tokens  int
	latency units.Seconds
}

func record(lat units.Seconds) {}

// rawLatency feeds an unlabelled magnitude where a parsed latency
// belongs.
func rawLatency() {
	record(0.000213) // want unitsafe
}

// launder strips the dimension with a bare conversion instead of the
// sanctioned Float()/Ms() accessors.
func launder(lat units.Seconds) float64 {
	return float64(lat) * 1e3 // want unitsafe
}

// parsed is the sanctioned construction: the dimension is applied to the
// raw parsed float at the boundary, once.
func parsed(tokens int, x float64) calRow {
	return calRow{tokens: tokens, latency: units.Seconds(x)}
}

// renderMs is the sanctioned read where the dimension is deliberately
// dropped for formatting.
func renderMs(lat units.Seconds) float64 { return lat.Ms() }
