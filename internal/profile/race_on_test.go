//go:build race

package profile

// raceDetector reports whether the test binary is built with -race, whose
// instrumentation moves the odd value to the heap: allocation counts that
// are exact without it get one object of slack with it.
const raceDetector = true
