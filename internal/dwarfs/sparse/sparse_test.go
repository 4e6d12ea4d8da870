package sparse

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/workload"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func TestDatasetsMatchFig3(t *testing.T) {
	ds := Datasets()
	if len(ds) != 5 {
		t.Fatalf("want 5 UF datasets, got %d", len(ds))
	}
	// Largest input: 5.1x DRAM ≈ 490 GB.
	last := ds[4]
	if last.Name != "nlpkkt120" {
		t.Errorf("largest dataset = %s", last.Name)
	}
	if gib := last.FootprintGiB; gib < 480 || gib > 500 {
		t.Errorf("nlpkkt120 footprint = %v GiB, want ~490", gib)
	}
}

func TestWorkloadPaperValid(t *testing.T) {
	w := WorkloadPaper()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Table III: SuperLU slows ~4.94x, between the scaled and bottlenecked
// tiers, with ~25% writes.
func TestWorkloadTableIII(t *testing.T) {
	w := WorkloadPaper()
	res, err := workload.Run(w, memsys.New(sock(), memsys.UncachedNVM), 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 4.0 || res.Slowdown > 6.0 {
		t.Errorf("slowdown = %v, want ~4.94", res.Slowdown)
	}
	if wr := res.WriteRatio(); wr < 15 || wr > 35 {
		t.Errorf("write ratio = %v%%, want ~25", wr)
	}
}

// Fig 5: the write-throttled panel phase grows from ~28% of execution on
// DRAM to ~70%+ on uncached NVM, and its write bandwidth collapses by
// ~10x while reads follow (the coupling effect: 54 -> ~4 GB/s).
func TestWorkloadWriteThrottlingPhaseShift(t *testing.T) {
	w := WorkloadPaper()
	share := func(mode memsys.Mode) (panelShare, panelWriteGBps, panelReadGBps float64) {
		res, _ := workload.Run(w, memsys.New(sock(), mode), 48)
		var p, total float64
		for _, po := range res.Phases {
			if po.Phase.Name == "factor-panels" {
				p += po.Time.Seconds()
				panelWriteGBps = (po.Epoch.DRAMWrite + po.Epoch.NVMWrite).GBpsValue()
				panelReadGBps = (po.Epoch.DRAMRead + po.Epoch.NVMRead).GBpsValue()
			}
			total += po.Time.Seconds()
		}
		return p / total, panelWriteGBps, panelReadGBps
	}
	dShare, dW, dR := share(memsys.DRAMOnly)
	uShare, uW, uR := share(memsys.UncachedNVM)
	if dShare < 0.2 || dShare > 0.35 {
		t.Errorf("DRAM panel share = %v, want ~0.28", dShare)
	}
	if uShare < 0.6 {
		t.Errorf("uncached panel share = %v, want >= 0.6 (paper: 70%%)", uShare)
	}
	if ratio := dW / uW; ratio < 8 {
		t.Errorf("write collapse = %vx (%v -> %v), want >= 8x", ratio, dW, uW)
	}
	if uR > 6 {
		t.Errorf("throttled panel read = %v GB/s, want <= 6 (coupling)", uR)
	}
	if dR < 40 {
		t.Errorf("DRAM panel read = %v GB/s, want ~54", dR)
	}
}

// Fig 3a: the factor Mflops is sustained on cached-NVM even at 5.1x the
// DRAM capacity, because the active working set stays small.
func TestWorkloadFig3Sustained(t *testing.T) {
	var foms []float64
	for _, d := range Datasets() {
		w := WorkloadDataset(d)
		res, err := workload.Run(w, memsys.New(sock(), memsys.CachedNVM), 48)
		if err != nil {
			t.Fatal(err)
		}
		foms = append(foms, res.FoMValue)
	}
	for i, f := range foms {
		if f < foms[0]*0.7 {
			t.Errorf("dataset %d FoM = %v, below 70%% of smallest (%v)", i, f, foms[0])
		}
	}
}

func TestWorkloadDatasetClamp(t *testing.T) {
	if err := WorkloadDataset(Dataset{Name: "tiny"}).Validate(); err != nil {
		t.Fatal(err)
	}
}
