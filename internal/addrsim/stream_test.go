package addrsim

// Equivalence tests for the streaming generator: the Next/Fill API and
// the O(1)-memory stream drivers must emit exactly the sequences and
// results of the materialized Generate path, so the perf refactor cannot
// move any cross-validation number.

import (
	"testing"

	"repro/internal/dramcache"
	"repro/internal/memdev"
	"repro/internal/units"
)

// Generate produces n requests as a slice: the materialized oracle the
// streaming API must match. It rewinds the positional state (stream
// interleaving and per-stream cursors) without touching the random
// stream, so each call restarts the address walk while the random
// stream continues, and its output is identical to draining Next from a
// fresh generator.
func (g *Generator) Generate(n int) []Request {
	g.n = 0
	clear(g.pos)
	reqs := make([]Request, n)
	g.Fill(reqs)
	return reqs
}

// RunCache drives a materialized request slice through a direct-mapped
// cache of the given capacity, with an initial warm-up pass excluded
// from statistics. It is the oracle RunCacheStream must match.
func RunCache(capacity units.Bytes, reqs []Request) CacheResult {
	c := dramcache.NewCache(capacity)
	warm := len(reqs) / 4
	c.AccessBatch(reqs[:warm])
	c.Reset()
	c.AccessBatch(reqs[warm:])
	return cacheResult(c)
}

// RunWPQ drives a materialized request slice through the WPQ. It is
// the oracle RunWPQStream must match.
func RunWPQ(q *memdev.WPQ, reqs []Request, arrival units.Bandwidth) WPQResult {
	if arrival <= 0 {
		arrival = units.GBps(10)
	}
	interval := units.CacheLine / float64(arrival)
	now := 0.0
	for _, r := range reqs {
		now += interval
		if !r.Write {
			continue
		}
		now += q.Store(now, uint64(r.Line))
	}
	q.Flush()
	return wpqResult(q)
}

func TestNextMatchesGenerate(t *testing.T) {
	const n = 4096
	for _, p := range memdev.Patterns() {
		want := NewGenerator(p, 2*units.MiB, 0.3, 4, 7).Generate(n)
		g := NewGenerator(p, 2*units.MiB, 0.3, 4, 7)
		for i := 0; i < n; i++ {
			if got := g.Next(); got != want[i] {
				t.Fatalf("%v: stream diverges from Generate at %d: %+v vs %+v", p, i, got, want[i])
			}
		}
	}
}

func TestFillAndEachMatchGenerate(t *testing.T) {
	const n = 1000
	want := NewGenerator(memdev.Gather, units.MiB, 0.5, 3, 11).Generate(n)

	g := NewGenerator(memdev.Gather, units.MiB, 0.5, 3, 11)
	got := make([]Request, n)
	g.Fill(got[:600]) // uneven chunks must not matter
	g.Fill(got[600:])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Fill diverges at %d", i)
		}
	}
}

// Generate rewinds the address walk on every call (its historical
// semantics: fresh positions, continuing random stream), so repeated
// calls on one generator match repeated calls interleaved with streaming
// reads.
func TestGenerateRewindsPositions(t *testing.T) {
	g := NewGenerator(memdev.Sequential, units.MiB, 0, 2, 3)
	first := g.Generate(100)
	g.Next() // perturb the stream position
	second := g.Generate(100)
	for i := range first {
		if first[i].Line != second[i].Line {
			t.Fatalf("Generate did not rewind the walk: line[%d] %d vs %d",
				i, first[i].Line, second[i].Line)
		}
	}
}

func TestRunCacheStreamMatchesRunCache(t *testing.T) {
	const n = 50000
	capacity := units.Bytes(256 * units.KiB)
	for _, p := range memdev.Patterns() {
		want := RunCache(capacity, NewGenerator(p, units.MiB, 0.25, 4, 21).Generate(n))
		got := RunCacheStream(capacity, NewGenerator(p, units.MiB, 0.25, 4, 21), n)
		if got != want {
			t.Errorf("%v: stream %+v vs materialized %+v", p, got, want)
		}
	}
}

func TestRunWPQStreamMatchesRunWPQ(t *testing.T) {
	const n = 30000
	for _, p := range memdev.Patterns() {
		qa := memdev.NewWPQ(64, units.GBps(13))
		want := RunWPQ(qa, NewGenerator(p, 64*units.MiB, 1.0, 8, 31).Generate(n), units.GBps(25))
		qb := memdev.NewWPQ(64, units.GBps(13))
		got := RunWPQStream(qb, NewGenerator(p, 64*units.MiB, 1.0, 8, 31), n, units.GBps(25))
		if got != want {
			t.Errorf("%v: stream %+v vs materialized %+v", p, got, want)
		}
	}
}

// The streaming driver must hold memory constant in stream length: the
// whole point of the refactor is cross-validating 10-100x longer streams.
func TestStreamDriversAllocateO1(t *testing.T) {
	g := NewGenerator(memdev.Stencil, units.MiB, 0.2, 4, 41)
	short := testing.AllocsPerRun(3, func() {
		RunCacheStream(256*units.KiB, g, 1_000)
	})
	long := testing.AllocsPerRun(3, func() {
		RunCacheStream(256*units.KiB, g, 100_000)
	})
	if long > short+1 {
		t.Errorf("RunCacheStream allocs grow with stream length: %v for 1k vs %v for 100k", short, long)
	}
}

func TestNextDoesNotAllocate(t *testing.T) {
	g := NewGenerator(memdev.Transpose, units.MiB, 0.5, 4, 51)
	if n := testing.AllocsPerRun(100, func() { g.Next() }); n != 0 {
		t.Errorf("Next allocates %v per call, want 0", n)
	}
}

func TestAccessBatchMatchesAccess(t *testing.T) {
	reqs := NewGenerator(memdev.Random, units.MiB, 0.4, 2, 61).Generate(20000)
	a := dramcache.NewCache(64 * units.KiB)
	for _, r := range reqs {
		a.Access(r.Line, r.Write)
	}
	b := dramcache.NewCache(64 * units.KiB)
	hits := b.AccessBatch(reqs)
	if a.Hits != b.Hits || a.Misses != b.Misses || a.Writebacks != b.Writebacks || a.Fills != b.Fills {
		t.Errorf("batch stats %+v diverge from per-access stats %+v", b, a)
	}
	if hits != b.Hits {
		t.Errorf("AccessBatch returned %d hits, recorded %d", hits, b.Hits)
	}
}
