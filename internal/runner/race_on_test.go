//go:build race

package runner_test

// raceDetector reports whether the test binary is built with -race, whose
// instrumentation turns append(s, make([]T, n)...) — the census's Δ tables
// grow that way — into an allocation of its own.
const raceDetector = true
