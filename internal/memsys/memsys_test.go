package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/memdev"
	"repro/internal/platform"
	"repro/internal/units"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func lowBWPhase() Phase {
	return Phase{
		Name: "low", Share: 1,
		ReadBW: units.MBps(25), WriteBW: units.MBps(14),
		ReadMix: Pure(memdev.Gather), WritePattern: memdev.Gather,
		WorkingSet: 10 * units.GiB,
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		DRAMOnly: "DRAM", CachedNVM: "cached-NVM", UncachedNVM: "uncached-NVM", Placed: "write-aware",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q want %q", m, m.String(), s)
		}
	}
	if Mode(42).String() != "mode(42)" {
		t.Errorf("invalid mode string: %s", Mode(42))
	}
	if len(Modes()) != 3 {
		t.Errorf("Modes() = %v", Modes())
	}
}

func TestMixNormalization(t *testing.T) {
	m := Mix(
		MixComponent{memdev.Sequential, 3},
		MixComponent{memdev.Gather, 1},
	)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m[0].Weight != 0.75 || m[1].Weight != 0.25 {
		t.Errorf("weights = %v", m)
	}
}

func TestMixDegenerate(t *testing.T) {
	m := Mix() // empty: falls back to sequential
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0] != (MixComponent{memdev.Sequential, 1}) {
		t.Errorf("empty mix = %v, want pure sequential", m)
	}
}

func TestMixValidateErrors(t *testing.T) {
	if err := (PatternMix{}).Validate(); err == nil {
		t.Error("empty mix should fail validation")
	}
	bad := PatternMix{{Pattern: memdev.Pattern(99), Weight: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid pattern should fail validation")
	}
	unnorm := PatternMix{{Pattern: memdev.Sequential, Weight: 0.5}}
	if err := unnorm.Validate(); err == nil {
		t.Error("non-unit weights should fail validation")
	}
}

func TestMixReadCapHarmonic(t *testing.T) {
	s := sock()
	seq := Pure(memdev.Sequential).ReadCap(s.NVM, 48)
	rnd := Pure(memdev.Random).ReadCap(s.NVM, 48)
	mix := Mix(
		MixComponent{memdev.Sequential, 0.5},
		MixComponent{memdev.Random, 0.5},
	).ReadCap(s.NVM, 48)
	want := 1 / (0.5/float64(seq) + 0.5/float64(rnd))
	if math.Abs(float64(mix)-want)/want > 1e-9 {
		t.Errorf("harmonic blend = %v, want %v", mix, want)
	}
	if mix >= seq || mix <= rnd {
		t.Errorf("blend %v should be between %v and %v", mix, rnd, seq)
	}
}

func TestMixLatencyWeighted(t *testing.T) {
	s := sock()
	m := Mix(
		MixComponent{memdev.Sequential, 0.5},
		MixComponent{memdev.Random, 0.5},
	)
	l := m.Latency(s.NVM)
	seq, rnd := s.NVM.ReadLatency(memdev.Sequential), s.NVM.ReadLatency(memdev.Random)
	want := 0.5*float64(seq) + 0.5*float64(rnd)
	if math.Abs(float64(l)-want) > 1e-15 {
		t.Errorf("mix latency = %v, want %v", l, units.Duration(want))
	}
}

func TestPhaseValidate(t *testing.T) {
	good := lowBWPhase()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Share = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("share > 1 should fail")
	}
	bad = good
	bad.ReadBW = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative bandwidth should fail")
	}
	bad = good
	bad.LatencyBound = 2
	if err := bad.Validate(); err == nil {
		t.Error("latency bound > 1 should fail")
	}
	bad = good
	bad.WritePattern = memdev.Pattern(50)
	if err := bad.Validate(); err == nil {
		t.Error("bad write pattern should fail")
	}
}

func TestDRAMOnlyUnconstrained(t *testing.T) {
	sys := New(sock(), DRAMOnly)
	r := sys.SolveEpoch(lowBWPhase(), 48)
	if r.Mult != 1 || r.BoundBy != BoundNone {
		t.Errorf("low-BW phase on DRAM: mult=%v bound=%v", r.Mult, r.BoundBy)
	}
	if r.NVMRead != 0 || r.NVMWrite != 0 {
		t.Error("DRAM-only must produce no NVM traffic")
	}
	if r.HitRate != 1 {
		t.Errorf("DRAM-only hit rate = %v", r.HitRate)
	}
}

func TestDRAMOnlySaturates(t *testing.T) {
	sys := New(sock(), DRAMOnly)
	ph := lowBWPhase()
	ph.ReadBW = units.GBps(500) // far beyond any DRAM capability
	r := sys.SolveEpoch(ph, 48)
	if r.Mult <= 1 || r.BoundBy != BoundDRAMRead {
		t.Errorf("oversubscribed DRAM read: mult=%v bound=%v", r.Mult, r.BoundBy)
	}
	// Achieved read equals capability.
	wantCap := ph.ReadMix.ReadCap(sock().DRAM, 48)
	if math.Abs(r.DRAMRead.GBpsValue()-wantCap.GBpsValue()) > 0.01 {
		t.Errorf("achieved %v, capability %v", r.DRAMRead, wantCap)
	}
}

// The insensitive tier (paper Table III: HACC 1.01x, Laghos 1.27x): low
// bandwidth demand slows little on uncached NVM.
func TestUncachedInsensitiveTier(t *testing.T) {
	sys := New(sock(), UncachedNVM)
	r := sys.SolveEpoch(lowBWPhase(), 48)
	if r.Mult > 1.05 {
		t.Errorf("low-BW phase slowed %vx on uncached NVM, want ~1", r.Mult)
	}
}

// The scaled tier: a read-heavy random workload (XSBench-like, ~67 GB/s
// demand) slows by roughly the DRAM/NVM capability gap (~4x).
func TestUncachedScaledTier(t *testing.T) {
	sys := New(sock(), UncachedNVM)
	ph := Phase{
		Name: "lookups", Share: 1,
		ReadBW: units.GBps(67), WriteBW: units.MBps(10),
		ReadMix: Pure(memdev.Random), WritePattern: memdev.Sequential,
		WorkingSet: 100 * units.GiB,
	}
	r := sys.SolveEpoch(ph, 48)
	if r.Mult < 3.4 || r.Mult > 5.0 {
		t.Errorf("XSBench-like slowdown = %v, want ~4.2", r.Mult)
	}
	if r.BoundBy != BoundNVMRead {
		t.Errorf("bound by %v, want nvm-read", r.BoundBy)
	}
	// Achieved NVM read traffic should land near the paper's 16 GB/s.
	if got := r.NVMRead.GBpsValue(); got < 13 || got > 19 {
		t.Errorf("achieved NVM read = %v GB/s, want ~16", got)
	}
}

// The bottlenecked tier: write-heavy transpose traffic (FFT-like) slows
// far beyond the 3x bandwidth gap — the write-throttling effect.
func TestUncachedBottleneckedTier(t *testing.T) {
	sys := New(sock(), UncachedNVM)
	ph := Phase{
		Name: "transpose", Share: 1,
		ReadBW: units.GBps(54), WriteBW: units.GBps(35),
		ReadMix: Pure(memdev.Transpose), WritePattern: memdev.Transpose,
		WorkingSet: 100 * units.GiB,
	}
	r := sys.SolveEpoch(ph, 48)
	if r.Mult < 10 {
		t.Errorf("FFT-like slowdown = %v, want >> 3 (write throttling)", r.Mult)
	}
	if r.BoundBy != BoundNVMWrite {
		t.Errorf("bound by %v, want nvm-write", r.BoundBy)
	}
	// Coupling: achieved read collapses along with writes (SuperLU
	// phase-1 behaviour: 54 -> ~4 GB/s).
	if got := r.NVMRead.GBpsValue(); got > 6 {
		t.Errorf("achieved read %v GB/s should be throttled below 6", got)
	}
}

// Write throttling threshold: a phase whose write demand stays under the
// NVM write capability does not trigger the collapse (Laghos phase 1 at
// 1.3 GB/s average, peak < 2 GB/s).
func TestUncachedBelowWriteThreshold(t *testing.T) {
	sys := New(sock(), UncachedNVM)
	ph := Phase{
		Name: "assemble", Share: 1,
		ReadBW: units.GBps(3.1), WriteBW: units.GBps(1.0),
		ReadMix: Pure(memdev.Stencil), WritePattern: memdev.Sequential,
		WorkingSet: 20 * units.GiB,
	}
	r := sys.SolveEpoch(ph, 48)
	if r.Mult > 1.4 {
		t.Errorf("below-threshold phase slowed %vx", r.Mult)
	}
}

// Latency-bound phases slow by the latency ratio even at negligible
// bandwidth.
func TestUncachedLatencyBound(t *testing.T) {
	sys := New(sock(), UncachedNVM)
	ph := lowBWPhase()
	ph.LatencyBound = 0.5
	ph.ReadMix = Pure(memdev.Random)
	r := sys.SolveEpoch(ph, 48)
	// 1 + 0.5*(304/80 - 1) = 2.4
	if r.Mult < 2.0 || r.Mult > 2.8 {
		t.Errorf("latency-bound mult = %v, want ~2.4", r.Mult)
	}
	if r.BoundBy != BoundLatency {
		t.Errorf("bound by %v, want latency", r.BoundBy)
	}
}

// Memory mode with a fitting working set stays near DRAM performance for
// well-behaved patterns (Fig 2: most apps within 10%).
func TestCachedNearDRAMWhenFits(t *testing.T) {
	sys := New(sock(), CachedNVM)
	ph := Phase{
		Name: "lookups", Share: 1,
		ReadBW: units.GBps(67), WriteBW: units.MBps(10),
		ReadMix: Pure(memdev.Random), WritePattern: memdev.Sequential,
		WorkingSet: units.GB(0.6 * 96),
	}
	r := sys.SolveEpoch(ph, 48)
	if r.Mult > 1.10 {
		t.Errorf("fitting random workload slowed %vx on cached-NVM, want <= 1.10", r.Mult)
	}
	if r.HitRate < 0.9 {
		t.Errorf("hit rate = %v", r.HitRate)
	}
}

// Hypre-like stencil at high occupancy loses ~25% on cached-NVM from
// conflict misses (Fig 4: read bandwidth 82.5 -> 59.5 GB/s).
func TestCachedConflictLoss(t *testing.T) {
	sys := New(sock(), CachedNVM)
	ph := Phase{
		Name: "smooth", Share: 1,
		ReadBW: units.GBps(82.5), WriteBW: units.GBps(5.7),
		ReadMix: Mix(
			MixComponent{memdev.Stencil, 0.7},
			MixComponent{memdev.Gather, 0.3},
		),
		WritePattern: memdev.Gather,
		WorkingSet:   units.GB(0.85 * 96),
	}
	r := sys.SolveEpoch(ph, 48)
	if r.Mult < 1.10 || r.Mult > 1.45 {
		t.Errorf("Hypre-like cached mult = %v, want ~1.28", r.Mult)
	}
	// Replacement traffic: NVM reads visible, DRAM writes above demand.
	if r.NVMRead == 0 {
		t.Error("cached mode with misses must show NVM read traffic")
	}
	if r.DRAMWrite.GBpsValue() <= 5.7/r.Mult {
		t.Error("cached mode must add fill traffic to DRAM writes")
	}
}

// Beyond-DRAM problems: cached-NVM degrades but still beats uncached
// (Fig 3: ~2x speedup at 2.9-4.4x footprint).
func TestCachedBeatsUncachedBeyondCapacity(t *testing.T) {
	cached := New(sock(), CachedNVM)
	uncached := New(sock(), UncachedNVM)
	ph := Phase{
		Name: "sweep", Share: 1,
		ReadBW: units.GBps(70), WriteBW: units.GBps(18),
		ReadMix: Pure(memdev.Stencil), WritePattern: memdev.Gather,
		WorkingSet: units.GB(4.4 * 96),
	}
	rc := cached.SolveEpoch(ph, 48)
	ru := uncached.SolveEpoch(ph, 48)
	if rc.Mult >= ru.Mult {
		t.Errorf("cached (%v) should beat uncached (%v) at 4.4x footprint", rc.Mult, ru.Mult)
	}
	speedup := ru.Mult / rc.Mult
	if speedup < 1.4 || speedup > 3.5 {
		t.Errorf("cached speedup over uncached = %v, want ~2", speedup)
	}
}

// SolvePlaced: keeping the write-hot traffic in DRAM recovers most of
// the DRAM performance (Fig 12) while read traffic scales from NVM.
func TestPlacedWriteAware(t *testing.T) {
	sys := New(sock(), Placed)
	ph := Phase{
		Name: "update", Share: 1,
		ReadBW: units.GBps(30), WriteBW: units.GBps(5.6),
		ReadMix: Pure(memdev.Strided), WritePattern: memdev.Strided,
		WorkingSet: 50 * units.GiB,
	}
	// Write-aware: all writes to DRAM, reads stay on NVM.
	writeAware := sys.SolvePlaced(ph, 48, Split{DRAMReadFrac: 0.1, DRAMWriteFrac: 0.95})
	// Uncached equivalent.
	uncached := New(sock(), UncachedNVM).SolveEpoch(ph, 48)
	if writeAware.Mult >= uncached.Mult {
		t.Errorf("write-aware (%v) should beat uncached (%v)", writeAware.Mult, uncached.Mult)
	}
	if writeAware.Mult > 1.6 {
		t.Errorf("write-aware mult = %v, want near DRAM (1)", writeAware.Mult)
	}
	// Read-aware control (paper's validation): placing read-hot data in
	// DRAM instead leaves the write bottleneck: ~uncached performance.
	readAware := sys.SolvePlaced(ph, 48, Split{DRAMReadFrac: 0.95, DRAMWriteFrac: 0.1})
	if readAware.Mult < uncached.Mult*0.7 {
		t.Errorf("read-aware placement (%v) should stay near uncached (%v)", readAware.Mult, uncached.Mult)
	}
}

func TestSolveEpochPanicsOnPlaced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SolveEpoch on Placed mode should panic")
		}
	}()
	New(sock(), Placed).SolveEpoch(lowBWPhase(), 48)
}

func TestEpochResultTotals(t *testing.T) {
	e := EpochResult{DRAMRead: 1, DRAMWrite: 2, NVMRead: 3, NVMWrite: 4}
	if e.TotalDRAM() != 3 || e.TotalNVM() != 7 {
		t.Error("totals wrong")
	}
}

func TestNVMCombinedRule(t *testing.T) {
	if got := nvmCombined(4, 2); got != 5 {
		t.Errorf("nvmCombined(4,2) = %v, want 5", got)
	}
	if got := nvmCombined(2, 4); got != 5 {
		t.Errorf("nvmCombined(2,4) = %v, want 5 (symmetric)", got)
	}
	if got := nvmCombined(3, 0); got != 3 {
		t.Errorf("nvmCombined(3,0) = %v, want 3", got)
	}
}

// Property: the multiplier never falls below 1 and is monotone in demand.
func TestMultMonotoneProperty(t *testing.T) {
	sys := New(sock(), UncachedNVM)
	f := func(rRaw, wRaw uint16) bool {
		r1 := units.Bandwidth(float64(rRaw) * 1e6)
		w1 := units.Bandwidth(float64(wRaw) * 1e6)
		ph := lowBWPhase()
		ph.ReadBW, ph.WriteBW = r1, w1
		m1 := sys.SolveEpoch(ph, 48).Mult
		ph.ReadBW *= 2
		ph.WriteBW *= 2
		m2 := sys.SolveEpoch(ph, 48).Mult
		return m1 >= 1 && m2 >= m1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: achieved traffic never exceeds demand on any mode.
func TestAchievedBelowDemandProperty(t *testing.T) {
	systems := []*System{New(sock(), DRAMOnly), New(sock(), CachedNVM), New(sock(), UncachedNVM)}
	f := func(rRaw, wRaw uint16, wsRaw uint8) bool {
		ph := Phase{
			Name: "p", Share: 1,
			ReadBW:  units.Bandwidth(float64(rRaw) * 1e7),
			WriteBW: units.Bandwidth(float64(wRaw) * 1e7),
			ReadMix: Pure(memdev.Strided), WritePattern: memdev.Strided,
			WorkingSet: units.Bytes(wsRaw) * 2 * units.GiB,
		}
		for _, sys := range systems {
			e := sys.SolveEpoch(ph, 48)
			// In cached mode NVMRead is fill traffic (it includes
			// write-allocate fills), so only demand-path reads are
			// compared against the read demand there.
			achieved := float64(e.DRAMRead + e.NVMRead)
			if sys.Mode == CachedNVM {
				achieved = float64(e.DRAMRead)
			}
			if achieved > float64(ph.ReadBW)+1 {
				return false
			}
			if e.Mult < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: cached-NVM multiplier is bounded by uncached (a cache never
// hurts versus going straight to NVM, for equal pattern/demand) — within
// a small tolerance for the writeback-path contention cases.
func TestCachedNotMuchWorseThanUncachedProperty(t *testing.T) {
	cached := New(sock(), CachedNVM)
	uncached := New(sock(), UncachedNVM)
	f := func(rRaw, wRaw uint16, wsRaw uint8) bool {
		ph := Phase{
			Name: "p", Share: 1,
			ReadBW:  units.Bandwidth(float64(rRaw) * 1e7),
			WriteBW: units.Bandwidth(float64(wRaw) * 1e7),
			ReadMix: Pure(memdev.Stencil), WritePattern: memdev.Strided,
			WorkingSet: units.Bytes(wsRaw) * units.GiB,
		}
		mc := cached.SolveEpoch(ph, 48).Mult
		mu := uncached.SolveEpoch(ph, 48).Mult
		return mc <= mu*1.35+0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
