//go:build !race

package legal_test

const raceEnabled = false
