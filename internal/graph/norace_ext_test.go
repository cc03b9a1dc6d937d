//go:build !race

package graph_test

// raceEnabled reports a race-detector build (race_ext_test.go).
const raceEnabled = false
