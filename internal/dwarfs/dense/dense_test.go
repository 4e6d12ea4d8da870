package dense

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/workload"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func TestWorkloadPaperValid(t *testing.T) {
	w := WorkloadPaper()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// N=48000: ~51 GiB of matrices * 1.1 ≈ 57 GiB (63% of socket DRAM).
	gib := w.Footprint.GiBValue()
	if gib < 50 || gib > 62 {
		t.Errorf("footprint = %v GiB, want ~57", gib)
	}
}

func TestWorkloadTableIII(t *testing.T) {
	w := WorkloadPaper()
	res, err := workload.Run(w, memsys.New(sock(), memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	// Table III: ScaLAPACK slows 2.99x on uncached NVM, ~10 GB/s read,
	// write ratio ~16%.
	if res.Slowdown < 2.4 || res.Slowdown > 3.6 {
		t.Errorf("slowdown = %v, want ~3", res.Slowdown)
	}
	if r := res.AvgRead().GBpsValue(); r < 7.5 || r > 13 {
		t.Errorf("read = %v GB/s, want ~10", r)
	}
	if wr := res.WriteRatio(); wr < 10 || wr > 25 {
		t.Errorf("write ratio = %v%%, want ~16", wr)
	}
}

// Fig 8 mechanism: the panel stage's share of execution grows with
// concurrency because it barely parallelizes.
func TestPanelShareGrowsWithConcurrency(t *testing.T) {
	w := WorkloadPaper()
	sys := memsys.New(sock(), memsys.UncachedNVM)
	share := func(threads int) float64 {
		res, err := workload.Run(w, sys, threads)
		if err != nil {
			t.Fatal(err)
		}
		var panel, total float64
		for _, po := range res.Phases {
			if po.Phase.Name == "panel" {
				panel += po.Time.Seconds()
			}
			total += po.Time.Seconds()
		}
		return panel / total
	}
	s16, s36 := share(16), share(36)
	if s36 <= s16 {
		t.Errorf("panel share should grow: %v at 16, %v at 36 threads", s16, s36)
	}
	if s36 < 0.15 {
		t.Errorf("panel share at 36 threads = %v, want >= 0.15 (paper: 30%%)", s36)
	}
}

// Fig 6: ScaLAPACK shows concurrency contention on cached-NVM — its
// high/low-concurrency performance ratio trails the DRAM ratio. (The
// paper additionally observes cached below uncached; our model places
// uncached lowest because its update stage is read-bound and NVM reads
// scale with threads, a known deviation from the paper.)
func TestCachedContentionVisible(t *testing.T) {
	w := WorkloadPaper()
	dram := memsys.New(sock(), memsys.DRAMOnly)
	cached := memsys.New(sock(), memsys.CachedNVM)
	ratio := func(sys *memsys.System) float64 {
		lo, _ := workload.Run(w, sys, 24)
		hi, _ := workload.Run(w, sys, 48)
		// Time FoM: performance ratio is inverse time ratio.
		return lo.Time.Seconds() / hi.Time.Seconds()
	}
	rd, rc := ratio(dram), ratio(cached)
	if rc >= rd {
		t.Errorf("cached concurrency ratio (%v) should trail DRAM (%v)", rc, rd)
	}
}

// Fig 12 structures: C and workspace carry ~96% of writes in ~30% of the
// footprint — the write-aware placement target.
func TestStructureProfile(t *testing.T) {
	w := WorkloadPaper()
	hot := map[string]bool{"C": true, "workspace": true}
	split := w.SplitFor(hot)
	if split.DRAMWriteFrac < 0.9 {
		t.Errorf("write-hot structures carry %v of writes, want > 0.9", split.DRAMWriteFrac)
	}
	var hotBytes float64
	for _, st := range w.Structures {
		if hot[st.Name] {
			hotBytes += float64(st.Size)
		}
	}
	frac := hotBytes / float64(w.Footprint)
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("write-hot structures occupy %v of footprint, want ~0.3-0.4", frac)
	}
}

func TestWorkloadNClamps(t *testing.T) {
	w := WorkloadN(10)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Footprint <= 0 {
		t.Error("clamped workload should have positive footprint")
	}
}

func TestWorkloadNGrowth(t *testing.T) {
	small, big := WorkloadN(6000), WorkloadN(48000)
	if small.Footprint >= big.Footprint {
		t.Error("footprint should grow with N")
	}
	if small.BaselineTime >= big.BaselineTime {
		t.Error("baseline time should grow with N^3")
	}
	ratio := float64(big.BaselineTime) / float64(small.BaselineTime)
	if ratio < 400 || ratio > 600 {
		t.Errorf("time ratio = %v, want 8^3 = 512", ratio)
	}
}
