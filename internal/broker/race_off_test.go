//go:build !race

package broker

// raceEnabled reports whether the test binary carries the race detector;
// see race_on_test.go.
const raceEnabled = false
