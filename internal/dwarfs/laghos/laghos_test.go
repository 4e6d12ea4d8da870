package laghos

import (
	"math"
	"testing"

	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestWorkloadPaperValid(t *testing.T) {
	w := WorkloadPaper()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Table III: Laghos slows 1.27x with ~4.1 GB/s traffic at 25% writes.
func TestWorkloadInsensitiveTier(t *testing.T) {
	w := WorkloadPaper()
	sock := platform.NewPurley().Socket(0)
	res, err := workload.Run(w, memsys.New(sock, memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 1.15 || res.Slowdown > 1.40 {
		t.Errorf("slowdown = %v, want ~1.27", res.Slowdown)
	}
	if total := res.AvgTotal().GBpsValue(); total < 3 || total > 5.5 {
		t.Errorf("total traffic = %v GB/s, want ~4.1", total)
	}
	if wr := res.WriteRatio(); wr < 18 || wr > 32 {
		t.Errorf("write ratio = %v%%, want ~25", wr)
	}
}

// Fig 5: Laghos keeps its phase composition on uncached NVM — the
// force-assembly phase stays ~20% of execution because its write demand
// never crosses the throttling threshold.
func TestWorkloadPhaseCompositionStable(t *testing.T) {
	w := WorkloadPaper()
	sock := platform.NewPurley().Socket(0)
	share := func(mode memsys.Mode) float64 {
		res, _ := workload.Run(w, memsys.New(sock, mode), 48)
		var f, total float64
		for _, po := range res.Phases {
			if po.Phase.Name == "force-assembly" {
				f += po.Time.Seconds()
			}
			total += po.Time.Seconds()
		}
		return f / total
	}
	d, u := share(memsys.DRAMOnly), share(memsys.UncachedNVM)
	if math.Abs(d-0.2) > 0.03 {
		t.Errorf("DRAM force share = %v, want ~0.2", d)
	}
	if math.Abs(u-d) > 0.05 {
		t.Errorf("uncached share (%v) should match DRAM (%v)", u, d)
	}
}

// Both phases stay below the write-throttling threshold on NVM.
func TestWorkloadBelowWriteThreshold(t *testing.T) {
	w := WorkloadPaper()
	sock := platform.NewPurley().Socket(0)
	for _, ph := range w.Phases {
		cap := sock.NVM.WriteThrottleThreshold(ph.WritePattern, 48)
		if float64(ph.WriteBW) > float64(cap) {
			t.Errorf("phase %s write %v exceeds threshold %v", ph.Name, ph.WriteBW, cap)
		}
	}
}

func TestWorkloadSizedClamp(t *testing.T) {
	if err := WorkloadSized(0).Validate(); err != nil {
		t.Fatal(err)
	}
}
