package structured

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
	gib := w.Footprint.GiBValue()
	if gib < 65 || gib > 80 {
		t.Errorf("footprint = %v GiB, want ~72", gib)
	}
}

// Table III: Hypre slows 4.67x on uncached NVM, read-dominant (8% write).
func TestWorkloadTableIII(t *testing.T) {
	w := WorkloadPaper()
	res, err := workload.Run(w, memsys.New(sock(), memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 3.8 || res.Slowdown > 5.6 {
		t.Errorf("slowdown = %v, want ~4.67", res.Slowdown)
	}
	if wr := res.WriteRatio(); wr < 3 || wr > 14 {
		t.Errorf("write ratio = %v%%, want ~8", wr)
	}
}

// Fig 2 / Fig 4: Hypre is the worst cached-NVM case, losing ~28% to
// conflict misses; its cached-mode read bandwidth drops accordingly and
// DRAM write traffic exceeds the DRAM-only run (replacement fills).
func TestWorkloadCachedLoss(t *testing.T) {
	w := WorkloadPaper()
	cres, err := workload.Run(w, memsys.New(sock(), memsys.CachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Slowdown < 1.15 || cres.Slowdown > 1.45 {
		t.Errorf("cached slowdown = %v, want ~1.28", cres.Slowdown)
	}
	dres, _ := workload.Run(w, memsys.New(sock(), memsys.DRAMOnly), 48)
	// Fig 4: cached read bandwidth ~28% below DRAM.
	drop := 1 - float64(cres.AvgDRAMRead)/float64(dres.AvgDRAMRead)
	if drop < 0.10 || drop > 0.45 {
		t.Errorf("cached read-bandwidth drop = %v, want ~0.28", drop)
	}
	// Fig 4: cached DRAM write traffic exceeds DRAM-only (fills).
	if cres.AvgDRAMWrite <= dres.AvgDRAMWrite {
		t.Errorf("cached DRAM write (%v) should exceed DRAM-only (%v)",
			cres.AvgDRAMWrite, dres.AvgDRAMWrite)
	}
	// NVM read traffic visible in cached mode.
	if cres.AvgNVMRead == 0 {
		t.Error("cached mode should show NVM read traffic")
	}
}

// Fig 3: at ~3x DRAM capacity, cached-NVM still roughly doubles the
// performance of uncached-NVM.
func TestWorkloadFig3Speedup(t *testing.T) {
	w := WorkloadFootprintGiB(2.9 * 96)
	cres, _ := workload.Run(w, memsys.New(sock(), memsys.CachedNVM), 48)
	ures, _ := workload.Run(w, memsys.New(sock(), memsys.UncachedNVM), 48)
	speedup := float64(ures.Time) / float64(cres.Time)
	if speedup < 1.5 || speedup > 3.2 {
		t.Errorf("cached speedup at 2.9x capacity = %v, want ~2", speedup)
	}
}

func TestWorkloadCellsClamp(t *testing.T) {
	w := WorkloadCells(1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}
