//go:build !race

package stream

// raceEnabled reports whether the race detector is compiled in. Allocation-
// count tests skip under -race: the detector makes sync.Pool drop items at
// random (by design, to stress pool users), so AllocsPerRun is meaningless
// there.
const raceEnabled = false
