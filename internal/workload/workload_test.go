package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/units"
)

func testWorkload() *Workload {
	return &Workload{
		Name: "synthetic", Dwarf: "test", Input: "unit",
		Footprint:    100 * units.GiB,
		BaselineTime: units.Duration(100),
		BaseThreads:  48,
		FoM:          FoM{Name: "Rate", Unit: "Mop/s", Higher: true, BaseValue: 1000},
		Scaling:      Scaling{ParallelFrac: 0.99, HTEfficiency: 0.3},
		Work:         1e13,
		Phases: []memsys.Phase{
			{
				Name: "read-heavy", Share: 0.6,
				ReadBW: units.GBps(40), WriteBW: units.GBps(2),
				ReadMix: memsys.Pure(memdev.Strided), WritePattern: memdev.Strided,
				WorkingSet: 60 * units.GiB,
			},
			{
				Name: "write-heavy", Share: 0.4,
				ReadBW: units.GBps(10), WriteBW: units.GBps(8),
				ReadMix: memsys.Pure(memdev.Transpose), WritePattern: memdev.Transpose,
				WorkingSet: 60 * units.GiB,
			},
		},
		Structures: []Structure{
			{Name: "A", Size: 60 * units.GiB, ReadFrac: 0.7, WriteFrac: 0.1},
			{Name: "C", Size: 40 * units.GiB, ReadFrac: 0.3, WriteFrac: 0.9},
		},
		Seed: 1,
	}
}

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func TestScalingSpeedup(t *testing.T) {
	s := Scaling{ParallelFrac: 0.99, HTEfficiency: 0.3}
	if s.Speedup(1) != 1 {
		t.Errorf("Speedup(1) = %v", s.Speedup(1))
	}
	if s.Speedup(24) <= s.Speedup(8) {
		t.Error("speedup should grow with physical cores")
	}
	// HT at 0.3 efficiency still gains a little.
	if s.Speedup(48) <= s.Speedup(24) {
		t.Error("positive HT efficiency should gain")
	}
	// Negative HT efficiency loses performance beyond physical cores
	// (the FT behaviour in Fig 6).
	ft := Scaling{ParallelFrac: 0.99, HTEfficiency: -0.5}
	if ft.Speedup(48) >= ft.Speedup(24) {
		t.Error("negative HT efficiency should lose beyond 24 threads")
	}
	// Guard: clamped at minimum 1 effective core.
	bad := Scaling{ParallelFrac: 0.9, HTEfficiency: -10}
	if v := bad.Speedup(48); v <= 0 || math.IsInf(v, 0) {
		t.Errorf("pathological scaling produced %v", v)
	}
}

func TestValidate(t *testing.T) {
	w := testWorkload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testWorkload()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name should fail")
	}
	bad = testWorkload()
	bad.Phases[0].Share = 0.9 // shares now sum to 1.3
	if bad.Validate() == nil {
		t.Error("bad share sum should fail")
	}
	bad = testWorkload()
	bad.Structures[0].ReadFrac = 0.5 // read fracs now sum to 0.8
	if bad.Validate() == nil {
		t.Error("bad structure fractions should fail")
	}
	bad = testWorkload()
	bad.BaselineTime = 0
	if bad.Validate() == nil {
		t.Error("zero baseline should fail")
	}
	bad = testWorkload()
	bad.BaseThreads = 0
	if bad.Validate() == nil {
		t.Error("zero base threads should fail")
	}
	bad = testWorkload()
	bad.Phases = nil
	if bad.Validate() == nil {
		t.Error("no phases should fail")
	}
}

func TestRunDRAMBaseline(t *testing.T) {
	w := testWorkload()
	sys := memsys.New(sock(), memsys.DRAMOnly)
	res, err := Run(w, sys, 48)
	if err != nil {
		t.Fatal(err)
	}
	// Demands are DRAM-achieved by construction: time == baseline.
	if math.Abs(float64(res.Time)-100) > 1 {
		t.Errorf("DRAM time = %v, want ~100", res.Time)
	}
	if math.Abs(res.Slowdown-1) > 1e-9 {
		t.Errorf("DRAM slowdown = %v, want 1", res.Slowdown)
	}
	if math.Abs(res.FoMValue-1000) > 15 {
		t.Errorf("DRAM FoM = %v, want ~1000", res.FoMValue)
	}
}

func TestRunUncachedSlowdown(t *testing.T) {
	w := testWorkload()
	sys := memsys.New(sock(), memsys.UncachedNVM)
	res, err := Run(w, sys, 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown <= 1.5 {
		t.Errorf("uncached slowdown = %v, want > 1.5 (write-heavy phase)", res.Slowdown)
	}
	// Rate FoM falls with slowdown.
	if res.FoMValue >= 1000 {
		t.Errorf("FoM should drop on uncached: %v", res.FoMValue)
	}
	// All traffic on NVM.
	if res.AvgDRAMRead != 0 || res.AvgDRAMWrite != 0 {
		t.Error("uncached run should have no DRAM traffic")
	}
	if res.AvgNVMRead == 0 {
		t.Error("uncached run should show NVM traffic")
	}
}

func TestRunTimeFoM(t *testing.T) {
	w := testWorkload()
	w.FoM = FoM{Name: "Run Time", Unit: "s", Higher: false}
	sys := memsys.New(sock(), memsys.DRAMOnly)
	res, err := Run(w, sys, 48)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FoMValue-res.Time.Seconds()) > 1e-9 {
		t.Errorf("time FoM = %v, time = %v", res.FoMValue, res.Time)
	}
}

func TestRunThreadValidation(t *testing.T) {
	w := testWorkload()
	sys := memsys.New(sock(), memsys.DRAMOnly)
	if _, err := Run(w, sys, 0); err == nil {
		t.Error("0 threads should fail")
	}
	if _, err := Run(w, sys, 96); err == nil {
		t.Error("96 threads should fail (one socket)")
	}
}

func TestRunConcurrencyScalesDemand(t *testing.T) {
	w := testWorkload()
	sys := memsys.New(sock(), memsys.DRAMOnly)
	lo, _ := Run(w, sys, 24)
	hi, _ := Run(w, sys, 48)
	// Positive HT efficiency: more threads, less time.
	if hi.Time >= lo.Time {
		t.Errorf("time should drop with threads: %v at 24, %v at 48", lo.Time, hi.Time)
	}
}

func TestConcurrencyContentionOnNVM(t *testing.T) {
	// The Fig 6 mechanism: the FoM ratio high/low concurrency is worse
	// on uncached NVM than on DRAM because the WPQ contention grows.
	w := testWorkload()
	dram := memsys.New(sock(), memsys.DRAMOnly)
	nvm := memsys.New(sock(), memsys.UncachedNVM)
	ratio := func(sys *memsys.System) float64 {
		lo, _ := Run(w, sys, 24)
		hi, _ := Run(w, sys, 48)
		return hi.FoMValue / lo.FoMValue
	}
	rd, rn := ratio(dram), ratio(nvm)
	if rn >= rd {
		t.Errorf("NVM concurrency ratio (%v) should trail DRAM (%v)", rn, rd)
	}
}

func TestSplitFor(t *testing.T) {
	w := testWorkload()
	split := w.SplitFor(map[string]bool{"C": true})
	if split.DRAMReadFrac != 0.3 || split.DRAMWriteFrac != 0.9 {
		t.Errorf("split = %+v", split)
	}
	empty := w.SplitFor(nil)
	if empty.DRAMReadFrac != 0 || empty.DRAMWriteFrac != 0 {
		t.Error("empty placement should split nothing")
	}
}

func TestRunPlacedWriteAware(t *testing.T) {
	w := testWorkload()
	placed := memsys.New(sock(), memsys.Placed)
	uncached := memsys.New(sock(), memsys.UncachedNVM)
	//

	writeAware, err := RunPlaced(w, placed, 48, map[string]bool{"C": true})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Run(w, uncached, 48)
	if writeAware.Time >= base.Time {
		t.Errorf("write-aware (%v) should beat uncached (%v)", writeAware.Time, base.Time)
	}
}

func TestRunPlacedRequiresPlacedMode(t *testing.T) {
	w := testWorkload()
	if _, err := RunPlaced(w, memsys.New(sock(), memsys.DRAMOnly), 48, nil); err == nil {
		t.Error("RunPlaced on DRAMOnly should fail")
	}
}

func TestTimelineAndTrace(t *testing.T) {
	w := testWorkload()
	w.TraceIterations = 10
	sys := memsys.New(sock(), memsys.UncachedNVM)
	res, _ := Run(w, sys, 48)
	tl := res.Timeline()
	if len(tl) != 20 { // 2 phases x 10 iterations
		t.Fatalf("timeline segments = %d, want 20", len(tl))
	}
	tr := res.Trace(200, 0)
	if len(tr.Samples) != 200 {
		t.Fatalf("trace samples = %d", len(tr.Samples))
	}
	// Phase shares in the trace reflect the dilated times.
	s1 := tr.PhaseShare("read-heavy")
	s2 := tr.PhaseShare("write-heavy")
	if math.Abs(s1+s2-1) > 1e-9 {
		t.Errorf("phase shares %v + %v != 1", s1, s2)
	}
	// The write-heavy phase throttles hard on NVM, so it dominates the
	// uncached timeline (the Fig 5 SuperLU effect).
	if s2 < 0.5 {
		t.Errorf("write-heavy share = %v, want dominant on uncached", s2)
	}
}

func TestProfile(t *testing.T) {
	w := testWorkload()
	sys := memsys.New(sock(), memsys.UncachedNVM)
	res, _ := Run(w, sys, 48)
	p := res.Profile(2.4)
	if p.Work != w.Work || p.Threads != 48 || p.FreqGHz != 2.4 {
		t.Error("profile fields wrong")
	}
	if p.MemStallFrac <= 0 || p.MemStallFrac > 0.98 {
		t.Errorf("stall fraction = %v", p.MemStallFrac)
	}
	if p.ReadBytes <= 0 || p.WriteBytes <= 0 {
		t.Error("profile traffic should be positive")
	}
	// Uncached run is more stalled than DRAM run.
	dres, _ := Run(w, memsys.New(sock(), memsys.DRAMOnly), 48)
	if dres.Profile(2.4).MemStallFrac >= p.MemStallFrac {
		t.Error("DRAM run should be less memory-stalled than uncached")
	}
}

func TestWriteRatio(t *testing.T) {
	w := testWorkload()
	res, _ := Run(w, memsys.New(sock(), memsys.DRAMOnly), 48)
	wr := res.WriteRatio()
	if wr <= 0 || wr >= 50 {
		t.Errorf("write ratio = %v%%, want moderate", wr)
	}
}

// Property: slowdown is always >= 1 on NVM configs and == 1 on DRAM,
// across thread counts.
func TestSlowdownProperty(t *testing.T) {
	w := testWorkload()
	dram := memsys.New(sock(), memsys.DRAMOnly)
	nvm := memsys.New(sock(), memsys.UncachedNVM)
	cached := memsys.New(sock(), memsys.CachedNVM)
	f := func(tRaw uint8) bool {
		th := int(tRaw%48) + 1
		rd, err := Run(w, dram, th)
		if err != nil || math.Abs(rd.Slowdown-1) > 1e-9 {
			return false
		}
		for _, sys := range []*memsys.System{nvm, cached} {
			r, err := Run(w, sys, th)
			if err != nil || r.Slowdown < 1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
