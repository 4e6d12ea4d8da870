package spectral

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/workload"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func TestWorkloadClassDValid(t *testing.T) {
	w := WorkloadClassD()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	gib := w.Footprint.GiBValue()
	if gib < 60 || gib > 75 {
		t.Errorf("class D footprint = %v GiB, want ~69", gib)
	}
}

// Table III: FT is the most bottlenecked application (14.9x), with the
// highest write ratio (39%).
func TestWorkloadBottleneckedTier(t *testing.T) {
	w := WorkloadClassD()
	res, err := workload.Run(w, memsys.New(sock(), memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 10 || res.Slowdown > 19 {
		t.Errorf("uncached slowdown = %v, want ~15", res.Slowdown)
	}
	if wr := res.WriteRatio(); wr < 28 || wr > 45 {
		t.Errorf("write ratio = %v%%, want ~39", wr)
	}
	if r := res.AvgRead().GBpsValue(); r < 2.3 || r > 5.5 {
		t.Errorf("achieved read = %v GB/s, want ~3.6", r)
	}
	if wv := res.AvgWrite().GBpsValue(); wv < 1.4 || wv > 3.4 {
		t.Errorf("achieved write = %v GB/s, want ~2.35", wv)
	}
}

// Fig 2: FT stays within ~10% of DRAM on cached-NVM.
func TestWorkloadCachedNearDRAM(t *testing.T) {
	w := WorkloadClassD()
	res, err := workload.Run(w, memsys.New(sock(), memsys.CachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown > 1.15 {
		t.Errorf("cached slowdown = %v, want <= 1.15", res.Slowdown)
	}
}

// Fig 6: FT's high/low concurrency ratio is ~0.61 on DRAM but collapses
// to ~0.37 on uncached NVM — concurrency contention.
func TestWorkloadFig6Contention(t *testing.T) {
	w := WorkloadClassD()
	ratio := func(mode memsys.Mode) float64 {
		sys := memsys.New(sock(), mode)
		lo, _ := workload.Run(w, sys, 24)
		hi, _ := workload.Run(w, sys, 48)
		return hi.FoMValue / lo.FoMValue
	}
	rd := ratio(memsys.DRAMOnly)
	ru := ratio(memsys.UncachedNVM)
	if rd < 0.5 || rd > 0.75 {
		t.Errorf("DRAM concurrency ratio = %v, want ~0.61", rd)
	}
	if ru > rd-0.1 {
		t.Errorf("uncached ratio (%v) should fall well below DRAM (%v)", ru, rd)
	}
	if ru < 0.25 || ru > 0.55 {
		t.Errorf("uncached ratio = %v, want ~0.37", ru)
	}
}

// Fig 7: going from 8 to 24 threads on uncached NVM, the achieved read
// bandwidth rises (more MLP, more re-reads) while the achieved write
// bandwidth falls (WPQ contention) — the diverging effect.
func TestWorkloadFig7Divergence(t *testing.T) {
	w := WorkloadClassD()
	sys := memsys.New(sock(), memsys.UncachedNVM)
	lo, _ := workload.Run(w, sys, 8)
	hi, _ := workload.Run(w, sys, 24)
	if hi.AvgRead() <= lo.AvgRead() {
		t.Errorf("read should rise with concurrency: %v -> %v", lo.AvgRead(), hi.AvgRead())
	}
	if hi.AvgWrite() >= lo.AvgWrite() {
		t.Errorf("write should fall with concurrency: %v -> %v", lo.AvgWrite(), hi.AvgWrite())
	}
}

func TestWorkloadPointsClamp(t *testing.T) {
	w := WorkloadPoints(1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Footprint < 32*1024*1024 {
		t.Error("clamped grid should still be sized")
	}
}
