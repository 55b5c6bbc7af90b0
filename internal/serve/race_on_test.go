//go:build race

package serve

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
