//go:build race

package main

// raceEnabled reports whether this test binary was built with -race;
// the profiled phase is skipped under the race detector.
const raceEnabled = true
