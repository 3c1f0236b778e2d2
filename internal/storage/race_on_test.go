//go:build race

package storage

// raceEnabled reports that the race detector is active; allocation counts
// differ under its instrumentation.
const raceEnabled = true
