//go:build race

package legal_test

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops Puts at random, so a path that reuses a pooled
// evaluation scratch allocates a fresh one now and then and
// testing.AllocsPerRun reports more than a normal build does.
const raceEnabled = true
