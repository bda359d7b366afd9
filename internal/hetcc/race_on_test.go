//go:build race

package hetcc

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation slows the single-goroutine duration golden by an
// order of magnitude, so that golden runs only without it.
const raceEnabled = true
