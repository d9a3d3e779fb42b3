//go:build !race

package runner_test

const raceDetector = false
