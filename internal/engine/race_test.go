//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation (and sync.Pool's deliberate drops under it) inflates
// allocation counts, so the allocation pins that lean on a pool skip
// themselves under -race.
const raceEnabled = true
