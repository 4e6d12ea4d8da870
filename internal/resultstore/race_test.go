//go:build race

package resultstore

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation (and sync.Pool's deliberate drops under it) inflates
// allocation counts, so the allocation pins skip themselves under -race.
const raceEnabled = true
