//go:build race

package remotecache

// raceEnabled reports that the race detector is active: allocation
// counts differ under its instrumentation, so tests that pin them skip.
const raceEnabled = true
