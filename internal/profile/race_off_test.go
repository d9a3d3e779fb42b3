//go:build !race

package profile

const raceDetector = false
