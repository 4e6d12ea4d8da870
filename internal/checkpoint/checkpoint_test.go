package checkpoint

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/units"
)

func TestTiersOrder(t *testing.T) {
	tiers := Tiers()
	if len(tiers) != 4 {
		t.Fatalf("want 4 tiers, got %d", len(tiers))
	}
	// Fastest first; only tmpfs is volatile.
	for i := 1; i < len(tiers); i++ {
		if tiers[i].WriteBW > tiers[i-1].WriteBW {
			t.Errorf("tier %s faster than %s", tiers[i].Name, tiers[i-1].Name)
		}
	}
	if tiers[0].Persistent {
		t.Error("tmpfs must be volatile")
	}
	for _, tr := range tiers[1:] {
		if !tr.Persistent {
			t.Errorf("%s must be persistent", tr.Name)
		}
	}
}

func TestTierByName(t *testing.T) {
	tr, err := TierByName("DAX-ext4 (Optane PMM)")
	if err != nil || !tr.OnNVM {
		t.Errorf("TierByName: %v %v", tr, err)
	}
	if _, err := TierByName("floppy"); err == nil {
		t.Error("unknown tier should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	good := LaghosConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Interval = 0
	if bad.Validate() == nil {
		t.Error("zero interval should fail")
	}
	bad = good
	bad.SnapshotBytes = 0
	if bad.Validate() == nil {
		t.Error("zero snapshot should fail")
	}
	bad = good
	bad.Steps = 1
	if bad.Validate() == nil {
		t.Error("steps < interval should fail")
	}
}

// Fig 9a: overheads follow the memory/storage hierarchy; the Optane tier
// costs 2-5% while the block tiers cost roughly 4x more.
func TestFig9aOverheadOrdering(t *testing.T) {
	cfg := LaghosConfig()
	var prev float64 = -1
	over := map[string]float64{}
	for _, tier := range Tiers() {
		o, err := Overhead(tier, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o <= prev {
			t.Errorf("%s overhead %v not above previous tier %v", tier.Name, o, prev)
		}
		if o <= 0 || o >= 0.2 {
			t.Errorf("%s overhead %v outside (0, 0.2)", tier.Name, o)
		}
		over[tier.Name] = o
		prev = o
	}
	dax := over["DAX-ext4 (Optane PMM)"]
	if dax < 0.02 || dax > 0.05 {
		t.Errorf("Optane overhead = %v, want 2-5%%", dax)
	}
	if ratio := over["ext4 (RAID)"] / dax; ratio < 2.5 {
		t.Errorf("RAID/Optane overhead ratio = %v, want ~4x", ratio)
	}
	if over["tmpfs (DRAM)"] >= dax {
		t.Error("tmpfs should bound Optane from below")
	}
}

func TestOverheadInvalidConfig(t *testing.T) {
	if _, err := Overhead(Tiers()[0], Config{}); err == nil {
		t.Error("invalid config should fail")
	}
}

// Fig 9b: the PMM timeline shows periodic NVM write bursts around
// 2 GB/s with the application's DRAM traffic undisturbed.
func TestFig9bTimeline(t *testing.T) {
	dax, _ := TierByName("DAX-ext4 (Optane PMM)")
	cfg := LaghosConfig()
	tl, err := Timeline(dax, cfg, units.GBps(4), units.GBps(1.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 20 { // 10 snapshot cycles x (compute + snapshot)
		t.Fatalf("timeline segments = %d, want 20", len(tl))
	}
	for i, seg := range tl {
		if seg.Name == "snapshot" {
			if seg.NVMWrite.GBpsValue() < 1 || seg.NVMWrite.GBpsValue() > 8 {
				t.Errorf("segment %d NVM burst = %v", i, seg.NVMWrite)
			}
			if seg.DRAMRead != units.GBps(4) {
				t.Error("application DRAM reads must continue during snapshots")
			}
		} else {
			if seg.NVMWrite != 0 {
				t.Errorf("segment %d: NVM traffic outside snapshots", i)
			}
		}
	}
	// Render a trace and confirm the periodic bursts show up.
	tr := trace.Build(tl, 400, 0, 1)
	vals := tr.Values(trace.ColNVMWrite)
	bursts := 0
	inBurst := false
	for _, v := range vals {
		if v > 1 && !inBurst {
			bursts++
			inBurst = true
		} else if v <= 1 {
			inBurst = false
		}
	}
	if bursts < 8 {
		t.Errorf("burst count = %d, want ~10 periodic bursts", bursts)
	}
}

func TestTimelineTmpfsAddsDRAMWrite(t *testing.T) {
	tmpfs := Tiers()[0]
	tl, err := Timeline(tmpfs, LaghosConfig(), units.GBps(4), units.GBps(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range tl {
		if seg.Name == "snapshot" && seg.DRAMWrite <= units.GBps(1) {
			t.Error("tmpfs snapshot must add DRAM write traffic")
		}
	}
}

func TestTimelineBlockTierNoMemoryBursts(t *testing.T) {
	lustre := Tiers()[3]
	tl, _ := Timeline(lustre, LaghosConfig(), units.GBps(4), units.GBps(1))
	for _, seg := range tl {
		if seg.NVMWrite != 0 {
			t.Error("block-storage snapshots must not write NVM")
		}
	}
}

func TestSnapshotTimeScalesWithBytes(t *testing.T) {
	dax, _ := TierByName("DAX-ext4 (Optane PMM)")
	small := SnapshotTime(dax, units.GiB)
	big := SnapshotTime(dax, 8*units.GiB)
	if big <= small {
		t.Error("snapshot time should grow with size")
	}
}

func TestTimelineInvalidConfig(t *testing.T) {
	if _, err := Timeline(Tiers()[0], Config{}, 0, 0); err == nil {
		t.Error("invalid config should fail")
	}
}

// overheadEvery is Overhead on the Laghos schedule snapshotting every
// iv steps, the run stretched to at least one interval.
func overheadEvery(t *testing.T, tier Tier, iv int) float64 {
	t.Helper()
	cfg := LaghosConfig()
	cfg.Interval = iv
	if cfg.Steps < iv {
		cfg.Steps = iv
	}
	o, err := Overhead(tier, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSweepIntervalsMonotone(t *testing.T) {
	dax, _ := TierByName("DAX-ext4 (Optane PMM)")
	var pts []float64
	for _, iv := range []int{1, 2, 5, 10, 20} {
		pts = append(pts, overheadEvery(t, dax, iv))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] >= pts[i-1] {
			t.Errorf("overhead should fall with longer intervals: %v", pts)
		}
	}
}

func TestMaxIntervalUnder(t *testing.T) {
	// The Optane tier supports much more frequent snapshots than Lustre
	// at the same overhead budget — the Fig 9 takeaway.
	dax, _ := TierByName("DAX-ext4 (Optane PMM)")
	lustre, _ := TierByName("lustre (Disk)")
	const budget = 0.05
	// smallest returns the shortest snapshot interval whose overhead
	// stays within the budget on the tier.
	smallest := func(tier Tier) int {
		for iv := 1; iv <= 10000; iv++ {
			if overheadEvery(t, tier, iv) <= budget {
				return iv
			}
		}
		t.Fatalf("no interval meets budget %v on %s", budget, tier.Name)
		return 0
	}
	ivDax, ivLustre := smallest(dax), smallest(lustre)
	if ivDax >= ivLustre {
		t.Errorf("Optane should allow more frequent snapshots: %d vs %d steps", ivDax, ivLustre)
	}
}
