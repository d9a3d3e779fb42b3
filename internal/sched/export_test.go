package sched

// Helpers of the package's internal tests, exported to its external ones
// (package sched_test), which may import the packages that import sched.
var (
	PoolPrograms = poolPrograms
	ResultsEqual = resultsEqual
)

type PickRandom = pickRandom
