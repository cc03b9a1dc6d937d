//go:build race

package graph_test

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of what is put back at random: a pin on what a pooled walk
// allocates measures the drops there.
const raceEnabled = true
