//go:build !race

package resultstore

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
