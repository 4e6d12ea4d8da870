package addrsim

// Cross-validation tests: the epoch solver's closed-form capability and
// hit-rate curves (internal/memdev, internal/dramcache) must agree in
// *ordering* with the operational queue/tag-store models when driven by
// concrete address streams. This pins the analytic constants the
// experiments rely on to measurable machine behaviour.

import (
	"testing"

	"repro/internal/dramcache"
	"repro/internal/memdev"
	"repro/internal/units"
)

// For every pair of patterns, if the closed-form write capability says
// pattern A sustains more than pattern B, the WPQ-measured effective
// bandwidth must not say the opposite (within a tolerance band).
func TestWriteCapabilityOrderingMatchesWPQ(t *testing.T) {
	nvm := memdev.NewNVM()
	const threads = 8
	measured := map[memdev.Pattern]float64{}
	for _, p := range memdev.Patterns() {
		q := memdev.NewWPQ(64, units.GBps(13))
		g := NewGenerator(p, 128*units.MiB, 1.0, threads, 101)
		res := RunWPQ(q, g.Generate(40000), units.GBps(25))
		measured[p] = res.EffectiveBW.GBpsValue()
	}
	closed := map[memdev.Pattern]float64{}
	for _, p := range memdev.Patterns() {
		closed[p] = nvm.WriteCapability(p, threads).GBpsValue()
	}
	ps := memdev.Patterns()
	for i, a := range ps {
		for _, b := range ps[i+1:] {
			// Strong closed-form separation must not be inverted by the
			// operational model.
			if closed[a] > closed[b]*1.5 && measured[a] < measured[b]*0.8 {
				t.Errorf("ordering inversion: closed-form %v(%v) >> %v(%v) but WPQ %v < %v",
					a, closed[a], b, closed[b], measured[a], measured[b])
			}
		}
	}
	// Anchor points: sequential streams combine fully; random streams
	// land near the 4x-amplified floor.
	if measured[memdev.Sequential] < 10 {
		t.Errorf("sequential WPQ bandwidth = %v GB/s, want ~13", measured[memdev.Sequential])
	}
	if measured[memdev.Random] > 5 {
		t.Errorf("random WPQ bandwidth = %v GB/s, want ~3.25", measured[memdev.Random])
	}
}

// The closed-form hit model's pattern ordering must match the
// operational cache for a fixed working-set ratio: more conflict-prone
// patterns must not hit more in the tag store.
func TestHitModelOrderingMatchesCache(t *testing.T) {
	capacity := units.Bytes(512 * units.KiB)
	model := dramcache.HitModel{Capacity: capacity}
	ws := units.Bytes(float64(capacity) * 0.75)

	measured := map[memdev.Pattern]float64{}
	for _, p := range memdev.Patterns() {
		// Multiple interleaved streams expose conflicts.
		g := NewGenerator(p, ws, 0.2, 4, 77)
		res := RunCache(capacity, g.Generate(120000))
		measured[p] = res.HitRate
	}
	// Sequential sweeps must hit nearly always at 75% occupancy; the
	// model agrees.
	if measured[memdev.Sequential] < 0.9 {
		t.Errorf("sequential operational hit rate = %v", measured[memdev.Sequential])
	}
	if m := hitRate(model, ws, memdev.Sequential); m < 0.9 {
		t.Errorf("sequential model hit rate = %v", m)
	}
	// Closed-form and operational agree within a coarse band for the
	// regular patterns (irregular generators have generator-specific
	// reuse the closed form intentionally averages over).
	for _, p := range []memdev.Pattern{memdev.Sequential, memdev.Stencil, memdev.Strided} {
		m := hitRate(model, ws, p)
		d := m - measured[p]
		if d > 0.35 || d < -0.35 {
			t.Errorf("%v: model %v vs operational %v", p, m, measured[p])
		}
	}
}

// Thrash regime agreement: at 4x capacity, both the operational cache
// and the closed form collapse for streaming patterns.
func TestThrashRegimeAgreement(t *testing.T) {
	capacity := units.Bytes(256 * units.KiB)
	model := dramcache.HitModel{Capacity: capacity}
	g := NewGenerator(memdev.Sequential, capacity*4, 0.1, 1, 5)
	res := RunCache(capacity, g.Generate(100000))
	m := hitRate(model, capacity*4, memdev.Sequential)
	if res.HitRate > 0.2 {
		t.Errorf("operational thrash hit rate = %v", res.HitRate)
	}
	if m > res.HitRate+0.45 {
		t.Errorf("model thrash rate %v too optimistic vs %v", m, res.HitRate)
	}
}

// hitRate is the closed-form hit model's rate for one pattern.
func hitRate(h dramcache.HitModel, workingSet units.Bytes, p memdev.Pattern) float64 {
	return h.RateParams(workingSet, p.ConflictSensitivity(), p.SpatialLocality())
}
