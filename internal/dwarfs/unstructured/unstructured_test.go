package unstructured

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
}

// Table III: BoxLib is bottlenecked — 8.94x slowdown, 21% writes.
func TestWorkloadBottlenecked(t *testing.T) {
	w := WorkloadPaper()
	res, err := workload.Run(w, memsys.New(sock(), memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 7.2 || res.Slowdown > 10.8 {
		t.Errorf("slowdown = %v, want ~8.94", res.Slowdown)
	}
	if wr := res.WriteRatio(); wr < 14 || wr > 30 {
		t.Errorf("write ratio = %v%%, want ~21", wr)
	}
	if r := res.AvgRead().GBpsValue(); r < 6 || r > 11 {
		t.Errorf("achieved read = %v GB/s, want ~8.2", r)
	}
}

// Fig 2: BoxLib loses more than 10% on cached-NVM but far less than
// uncached.
func TestWorkloadCachedModerateLoss(t *testing.T) {
	w := WorkloadPaper()
	res, err := workload.Run(w, memsys.New(sock(), memsys.CachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 1.05 || res.Slowdown > 1.5 {
		t.Errorf("cached slowdown = %v, want ~1.1-1.3", res.Slowdown)
	}
}

// Fig 3b: at 4.4x DRAM capacity, cached-NVM roughly doubles uncached
// performance.
func TestWorkloadFig3Speedup(t *testing.T) {
	w := WorkloadFootprintGiB(4.4 * 96)
	c, _ := workload.Run(w, memsys.New(sock(), memsys.CachedNVM), 48)
	u, _ := workload.Run(w, memsys.New(sock(), memsys.UncachedNVM), 48)
	speedup := float64(u.Time) / float64(c.Time)
	if speedup < 1.5 || speedup > 3.5 {
		t.Errorf("cached speedup at 4.4x = %v, want ~2", speedup)
	}
}

// Fig 6: BoxLib shows a notable concurrency-contention gap between DRAM
// and uncached NVM.
func TestWorkloadFig6Gap(t *testing.T) {
	w := WorkloadPaper()
	ratio := func(mode memsys.Mode) float64 {
		sys := memsys.New(sock(), mode)
		lo, _ := workload.Run(w, sys, 24)
		hi, _ := workload.Run(w, sys, 48)
		return lo.Time.Seconds() / hi.Time.Seconds()
	}
	rd, ru := ratio(memsys.DRAMOnly), ratio(memsys.UncachedNVM)
	if ru >= rd-0.05 {
		t.Errorf("uncached ratio (%v) should trail DRAM (%v) by a visible gap", ru, rd)
	}
}

func TestWorkloadClamp(t *testing.T) {
	if err := WorkloadFootprintGiB(0).Validate(); err != nil {
		t.Fatal(err)
	}
}
