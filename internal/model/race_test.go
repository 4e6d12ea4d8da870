//go:build race

package model

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation inflates allocation counts, so the allocation pins
// skip themselves under -race.
const raceEnabled = true
