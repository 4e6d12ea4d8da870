//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation inflates allocation counts, so the allocation pin
// skips itself under -race.
const raceEnabled = true
