package montecarlo

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestWorkloadXLValid(t *testing.T) {
	w := WorkloadXL()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Dwarf != "Monte Carlo" {
		t.Errorf("dwarf = %q", w.Dwarf)
	}
}

func TestWorkloadTableIIIBehaviour(t *testing.T) {
	w := WorkloadXL()
	sock := platform.NewPurley().Socket(0)
	res, err := workload.Run(w, memsys.New(sock, memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	// Table III: slowdown 4.16x, read ~16.1 GB/s, write ratio ~0%.
	if res.Slowdown < 3.5 || res.Slowdown > 4.8 {
		t.Errorf("uncached slowdown = %v, want ~4.16", res.Slowdown)
	}
	if r := res.AvgRead().GBpsValue(); r < 13 || r > 19 {
		t.Errorf("achieved read = %v GB/s, want ~16", r)
	}
	if wr := res.WriteRatio(); wr > 2 {
		t.Errorf("write ratio = %v%%, want ~0", wr)
	}
}

func TestWorkloadCachedNearDRAM(t *testing.T) {
	w := WorkloadXL()
	sock := platform.NewPurley().Socket(0)
	res, err := workload.Run(w, memsys.New(sock, memsys.CachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 2: XSBench on cached-NVM within 10% of DRAM.
	if res.Slowdown > 1.10 {
		t.Errorf("cached slowdown = %v, want <= 1.10", res.Slowdown)
	}
}

func TestWorkloadSizedScaling(t *testing.T) {
	small := WorkloadSized(67)
	big := WorkloadSized(545)
	if small.Footprint >= big.Footprint {
		t.Error("footprint should grow with size parameter")
	}
	if small.BaselineTime >= big.BaselineTime {
		t.Error("baseline time should grow with lookups")
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degenerate input clamps.
	if WorkloadSized(-5).Footprint <= 0 {
		t.Error("negative size should clamp")
	}
}

func TestWorkloadConcurrencyGain(t *testing.T) {
	// Fig 6: XSBench gains >30% from 24 -> 48 threads on DRAM.
	w := WorkloadXL()
	sock := platform.NewPurley().Socket(0)
	sys := memsys.New(sock, memsys.DRAMOnly)
	lo, _ := workload.Run(w, sys, 24)
	hi, _ := workload.Run(w, sys, 48)
	ratio := hi.FoMValue / lo.FoMValue
	if ratio < 1.25 {
		t.Errorf("concurrency gain = %v, want > 1.25", ratio)
	}
}
