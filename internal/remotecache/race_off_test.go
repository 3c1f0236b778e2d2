//go:build !race

package remotecache

const raceEnabled = false
