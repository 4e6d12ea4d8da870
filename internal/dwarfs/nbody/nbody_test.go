package nbody

import (
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
	gib := w.Footprint.GiBValue()
	if gib < 45 || gib > 62 {
		t.Errorf("footprint = %v GiB, want ~55", gib)
	}
}

// Table III: HACC is the insensitive tier — 1.01x on uncached NVM with
// ~40 MB/s of traffic at 36% writes.
func TestWorkloadInsensitive(t *testing.T) {
	w := WorkloadPaper()
	sock := platform.NewPurley().Socket(0)
	res, err := workload.Run(w, memsys.New(sock, memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown > 1.05 {
		t.Errorf("slowdown = %v, want ~1.01", res.Slowdown)
	}
	if total := res.AvgTotal().MBpsValue(); total < 20 || total > 80 {
		t.Errorf("total traffic = %v MB/s, want ~40", total)
	}
	if wr := res.WriteRatio(); wr < 25 || wr > 45 {
		t.Errorf("write ratio = %v%%, want ~36", wr)
	}
}

// Fig 6: HACC gains >30% from increased concurrency on every config.
func TestWorkloadConcurrencyGain(t *testing.T) {
	w := WorkloadPaper()
	sock := platform.NewPurley().Socket(0)
	for _, mode := range memsys.Modes() {
		sys := memsys.New(sock, mode)
		lo, _ := workload.Run(w, sys, 24)
		hi, _ := workload.Run(w, sys, 48)
		ratio := lo.Time.Seconds() / hi.Time.Seconds()
		if ratio < 1.25 {
			t.Errorf("%v: concurrency gain = %v, want > 1.25", mode, ratio)
		}
	}
}

func TestWorkloadParticlesClamp(t *testing.T) {
	if err := WorkloadParticles(1).Validate(); err != nil {
		t.Fatal(err)
	}
}
