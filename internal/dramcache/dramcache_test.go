package dramcache

import (
	"testing"
	"testing/quick"

	"repro/internal/memdev"
	"repro/internal/units"
	"repro/internal/xrand"
)

func TestNewCachePanicsTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCache(1 byte) should panic")
		}
	}()
	NewCache(1)
}

func TestCacheHitsOnRepeat(t *testing.T) {
	c := NewCache(64 * units.KiB) // 1024 sets
	c.Access(5, false)
	hit, _ := c.Access(5, false)
	if !hit {
		t.Error("second access to same line should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheDirectMappedConflict(t *testing.T) {
	c := NewCache(64 * units.KiB) // 1024 sets
	sets := c.sets
	c.Access(0, true)     // dirty line in set 0
	c.Access(sets, false) // conflicts with line 0 -> evicts dirty
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1 (dirty eviction)", c.Writebacks)
	}
	hit, _ := c.Access(0, false)
	if hit {
		t.Error("line 0 should have been evicted by its conflict")
	}
}

func TestCacheCleanEvictionNoWriteback(t *testing.T) {
	c := NewCache(64 * units.KiB)
	sets := c.sets
	c.Access(0, false)
	_, wb := c.Access(sets, false)
	if wb {
		t.Error("clean eviction should not write back")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := NewCache(1 * units.MiB)
	// Sweep a working set of half the capacity, twice. Second sweep
	// should hit everywhere (direct-mapped, contiguous: no conflicts).
	lines := c.sets / 2
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < lines; i++ {
			c.Access(i, false)
		}
	}
	wantHits := lines
	if c.Hits != wantHits {
		t.Errorf("hits = %d, want %d", c.Hits, wantHits)
	}
}

func TestCacheThrashing(t *testing.T) {
	c := NewCache(64 * units.KiB)
	// Working set 4x capacity, swept repeatedly: every access misses
	// (pure streaming, direct-mapped).
	lines := c.sets * 4
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < lines; i++ {
			c.Access(i, false)
		}
	}
	if c.Hits != 0 {
		t.Errorf("streaming 4x working set should never hit, got %d hits", c.Hits)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(64 * units.KiB)
	c.Access(1, true)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 || c.Writebacks != 0 || c.Fills != 0 {
		t.Error("Reset did not clear statistics")
	}
	// Contents survive: the line still hits.
	if hit, _ := c.Access(1, false); !hit {
		t.Error("Reset should keep cache contents")
	}
}

func TestCacheTraffic(t *testing.T) {
	c := NewCache(64 * units.KiB)
	sets := c.sets
	c.Access(0, true)
	c.Access(sets, true) // evict dirty, fill, dirty again
	c.Access(0, false)   // evict dirty again, fill
	tr := c.Traffic()
	if tr.NVMReadLines != 3 {
		t.Errorf("NVM reads = %d, want 3 (all misses fill)", tr.NVMReadLines)
	}
	if tr.NVMWriteLines != 2 {
		t.Errorf("NVM writes = %d, want 2 (two dirty evictions)", tr.NVMWriteLines)
	}
	if tr.DRAMFillLines != 3 {
		t.Errorf("DRAM fills = %d, want 3", tr.DRAMFillLines)
	}
}

// Access and AccessBatch sit on the simulator's innermost loop and must
// never allocate.
func TestAccessDoesNotAllocate(t *testing.T) {
	c := NewCache(64 * units.KiB)
	line := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Access(line, line%3 == 0)
		line += 7
	}); n != 0 {
		t.Errorf("Access allocates %v per call, want 0", n)
	}
	reqs := make([]Request, 256)
	for i := range reqs {
		reqs[i] = Request{Line: int64(i * 5), Write: i%4 == 0}
	}
	if n := testing.AllocsPerRun(100, func() { c.AccessBatch(reqs) }); n != 0 {
		t.Errorf("AccessBatch allocates %v per call, want 0", n)
	}
}

// Non-power-of-two and non-line-multiple capacities round up to the
// next power-of-two set count (the documented rule replacing silent
// truncation); power-of-two capacities are exact.
func TestNewCacheRounding(t *testing.T) {
	cases := []struct {
		capacity units.Bytes
		sets     int64
	}{
		{64, 1},
		{65, 2},                     // partial second line rounds up
		{64 * units.KiB, 1024},      // exact power of two
		{3 * 64 * units.KiB, 4096},  // 3072 lines -> 4096 sets
		{100 * units.KiB, 2048},     // 1600 lines -> 2048 sets
		{1*units.MiB - 64, 1 << 14}, // 16383 lines -> 16384 sets
	}
	for _, c := range cases {
		if got := NewCache(c.capacity).sets; got != c.sets {
			t.Errorf("NewCache(%v).sets = %d, want %d", c.capacity, got, c.sets)
		}
	}
}

func TestHitRateZeroOnEmpty(t *testing.T) {
	c := NewCache(64 * units.KiB)
	if c.HitRate() != 0 {
		t.Error("empty cache hit rate should be 0")
	}
}

// --- HitModel ---

func TestHitModelFitsRegime(t *testing.T) {
	h := HitModel{Capacity: 96 * units.GiB}
	// Tiny working set: essentially all hits.
	if r := rate(h, 1*units.GiB, memdev.Sequential); r < 0.98 {
		t.Errorf("tiny sequential working set rate = %v", r)
	}
	// At 85% occupancy, stencil conflicts cost a visible fraction
	// (the mechanism behind Hypre's 28% cached loss).
	r := rate(h, units.GB(0.85*96), memdev.Stencil)
	if r < 0.60 || r > 0.80 {
		t.Errorf("stencil at 85%% occupancy = %v, want 0.6-0.8", r)
	}
	// Random single-structure lookups barely conflict (XSBench stays
	// within 10% of DRAM in Fig 2).
	r = rate(h, units.GB(0.8*96), memdev.Random)
	if r < 0.94 {
		t.Errorf("random at 80%% occupancy = %v, want >= 0.94", r)
	}
}

func TestHitModelThrashRegime(t *testing.T) {
	h := HitModel{Capacity: 96 * units.GiB}
	for _, p := range memdev.Patterns() {
		r1 := rate(h, 96*units.GiB, p)
		r44 := rate(h, units.GB(4.4*96), p)
		if r44 >= r1 {
			t.Errorf("%v: rate should fall past capacity: %v at 1x, %v at 4.4x", p, r1, r44)
		}
		if r44 <= 0 || r44 >= 0.6 {
			t.Errorf("%v at 4.4x capacity = %v, want (0, 0.6)", p, r44)
		}
	}
}

func TestHitModelContinuityAtCapacity(t *testing.T) {
	h := HitModel{Capacity: 96 * units.GiB}
	for _, p := range memdev.Patterns() {
		below := rate(h, units.GB(0.999*96), p)
		above := rate(h, units.GB(1.001*96), p)
		if d := below - above; d < -0.02 || d > 0.12 {
			t.Errorf("%v: discontinuity at capacity: %v vs %v", p, below, above)
		}
	}
}

func TestHitModelDegenerate(t *testing.T) {
	if rate(HitModel{}, units.GiB, memdev.Random) != 0 {
		t.Error("zero-capacity model should return 0")
	}
	h := HitModel{Capacity: units.GiB}
	if rate(h, 0, memdev.Random) != 1 {
		t.Error("zero working set should fully hit")
	}
}

func TestDirtyFraction(t *testing.T) {
	if DirtyFraction(0) != 0 {
		t.Error("read-only traffic has no dirty lines")
	}
	if DirtyFraction(1) != 1 {
		t.Error("write-only traffic saturates dirtiness")
	}
	if d := DirtyFraction(0.25); d < 0.39 || d > 0.41 {
		t.Errorf("DirtyFraction(0.25) = %v, want 0.4", d)
	}
}

// The closed-form model must agree qualitatively with the operational
// cache: a working set that fits hits nearly always; one that thrashes
// hits rarely. This validates the epoch solver's constants against the
// address-level machine.
func TestHitModelMatchesOperationalCache(t *testing.T) {
	capacity := units.Bytes(256 * units.KiB)
	model := HitModel{Capacity: capacity}

	// Fitting sequential sweep (ws = 0.5 C), measured after warm-up.
	c := NewCache(capacity)
	lines := c.sets / 2
	for i := int64(0); i < lines; i++ {
		c.Access(i, false)
	}
	c.Reset()
	for pass := 0; pass < 4; pass++ {
		for i := int64(0); i < lines; i++ {
			c.Access(i, false)
		}
	}
	op := c.HitRate()
	mod := rate(model, capacity/2, memdev.Sequential)
	if d := op - mod; d < -0.15 || d > 0.15 {
		t.Errorf("fits regime: operational %v vs model %v", op, mod)
	}

	// Thrashing sweep (ws = 4 C): operational rate 0; model must be low.
	c2 := NewCache(capacity)
	lines2 := c2.sets * 4
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < lines2; i++ {
			c2.Access(i, false)
		}
	}
	if m4 := rate(model, capacity*4, memdev.Sequential); m4 > c2.HitRate()+0.45 {
		t.Errorf("thrash regime: operational %v vs model %v", c2.HitRate(), m4)
	}
}

// Interleaved streams conflict in a direct-mapped cache even when their
// combined size fits: the operational origin of conflictSensitivity.
func TestInterleavedStreamsConflict(t *testing.T) {
	capacity := units.Bytes(256 * units.KiB)
	c := NewCache(capacity)
	sets := c.sets
	// Two streams, each 0.4 C, offset so they alias in the same sets.
	a, b := int64(0), sets // same set mapping
	n := int64(float64(sets) * 0.4)
	for pass := 0; pass < 4; pass++ {
		for i := int64(0); i < n; i++ {
			c.Access(a+i, false)
			c.Access(b+i, true)
		}
	}
	if c.HitRate() > 0.05 {
		t.Errorf("aliased interleaved streams should thrash, hit rate %v", c.HitRate())
	}
}

// Property: hit rate is ratio-invariant under scaling cache and working
// set together (justifies scaled-down simulation of the 96-GiB cache).
func TestCacheScaleInvarianceProperty(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw)
		rates := make([]float64, 0, 2)
		for _, scale := range []int64{1, 4} {
			c := NewCache(units.Bytes(64 * units.KiB * scale))
			ws := c.sets * 3 / 4
			r := xrand.New(seed)
			// Random accesses within the working set; the access count
			// scales with the working set so cold-miss shares match.
			for i := int64(0); i < ws*20; i++ {
				c.Access(r.Int63n(ws), r.Float64() < 0.2)
			}
			rates = append(rates, c.HitRate())
		}
		d := rates[0] - rates[1]
		return d > -0.05 && d < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: the model rate is always in [0,1] and monotone non-increasing
// in working-set size.
func TestHitModelMonotoneProperty(t *testing.T) {
	h := HitModel{Capacity: units.GiB}
	f := func(wsRaw uint32) bool {
		ws := units.Bytes(wsRaw) * units.MiB / 8
		for _, p := range memdev.Patterns() {
			r1 := rate(h, ws, p)
			r2 := rate(h, ws+64*units.MiB, p)
			if r1 < 0 || r1 > 1 || r2 > r1+0.11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// rate is the hit model's rate for one pattern's parameters.
func rate(h HitModel, workingSet units.Bytes, p memdev.Pattern) float64 {
	return h.RateParams(workingSet, p.ConflictSensitivity(), p.SpatialLocality())
}
