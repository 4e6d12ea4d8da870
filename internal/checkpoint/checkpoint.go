// Package checkpoint models the paper's Section IV-E persistence study:
// large-scale HPC simulations periodically snapshot state for
// visualization and resilience, and the overhead depends on the storage
// tier — tmpfs on DRAM (fast but volatile, the upper bound), a DAX-aware
// ext4 on the Optane in AppDirect mode (persistent, 64-byte
// load/store I/O), ext4 on the local RAID, and Lustre over the
// interconnect (Fig 9a). The AppDirect writes bypass DRAM entirely, so
// they do not interfere with the application's DRAM traffic (Fig 9b).
package checkpoint

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/units"
)

// Tier is one storage target for snapshots.
type Tier struct {
	Name string
	// WriteBW is the sustained large-block write bandwidth of the tier.
	WriteBW units.Bandwidth
	// PerSnapshotOverhead is the fixed software cost per snapshot
	// (syscalls, metadata, network round trips). DAX file systems
	// convert file writes into store instructions and avoid most of it.
	PerSnapshotOverhead units.Duration
	// Persistent marks whether data survives power failure.
	Persistent bool
	// OnNVM marks AppDirect tiers whose writes land on the NVDIMMs
	// (used for traffic attribution in Fig 9b).
	OnNVM bool
	// OnDRAM marks tmpfs, whose writes consume DRAM bandwidth.
	OnDRAM bool
}

// Tiers returns the paper's four storage tiers, fastest first.
func Tiers() []Tier {
	return []Tier{
		{
			Name:                "tmpfs (DRAM)",
			WriteBW:             units.GBps(20),
			PerSnapshotOverhead: units.Duration(2e-3),
			Persistent:          false,
			OnDRAM:              true,
		},
		{
			Name:                "DAX-ext4 (Optane PMM)",
			WriteBW:             units.GBps(6), // sequential large-block stores at low thread count
			PerSnapshotOverhead: units.Duration(4e-3),
			Persistent:          true,
			OnNVM:               true,
		},
		{
			Name:                "ext4 (RAID)",
			WriteBW:             units.GBps(1.8),
			PerSnapshotOverhead: units.Duration(30e-3),
			Persistent:          true,
		},
		{
			Name:                "lustre (Disk)",
			WriteBW:             units.GBps(1.4),
			PerSnapshotOverhead: units.Duration(120e-3),
			Persistent:          true,
		},
	}
}

// TierByName finds a tier.
func TierByName(name string) (Tier, error) {
	for _, t := range Tiers() {
		if t.Name == name {
			return t, nil
		}
	}
	return Tier{}, fmt.Errorf("checkpoint: unknown tier %q", name)
}

// Config describes a snapshot schedule: the paper snapshots Laghos every
// five steps.
type Config struct {
	// SnapshotBytes is the state written per snapshot.
	SnapshotBytes units.Bytes
	// Interval is the number of simulation steps between snapshots.
	Interval int
	// StepTime is the simulation time per step (without checkpointing).
	StepTime units.Duration
	// Steps is the total number of simulation steps.
	Steps int
}

// Validate checks the schedule.
func (c Config) Validate() error {
	if c.SnapshotBytes <= 0 || c.Interval < 1 || c.StepTime <= 0 || c.Steps < c.Interval {
		return fmt.Errorf("checkpoint: invalid config %+v", c)
	}
	return nil
}

// SnapshotTime returns the time one snapshot takes on the tier.
func SnapshotTime(t Tier, bytes units.Bytes) units.Duration {
	return units.Duration(float64(bytes)/float64(t.WriteBW)) + t.PerSnapshotOverhead
}

// Overhead returns the fractional run-time overhead of checkpointing on
// the tier: snapshot time divided by the extended interval time
// (Fig 9a's y-axis).
func Overhead(t Tier, c Config) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	snap := SnapshotTime(t, c.SnapshotBytes).Seconds()
	interval := float64(c.Interval) * c.StepTime.Seconds()
	return snap / (interval + snap), nil
}

// Timeline renders the Fig 9b trace: the application's steady DRAM
// traffic with periodic write bursts to the snapshot tier. appRead and
// appWrite are the application's DRAM bandwidth between snapshots.
func Timeline(t Tier, c Config, appRead, appWrite units.Bandwidth) ([]trace.Segment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var out []trace.Segment
	snapDur := SnapshotTime(t, c.SnapshotBytes)
	snapBW := units.Bandwidth(float64(c.SnapshotBytes) / snapDur.Seconds())
	for step := 0; step < c.Steps; step += c.Interval {
		out = append(out, trace.Segment{
			Name:      "compute",
			Duration:  units.Duration(float64(c.Interval) * c.StepTime.Seconds()),
			DRAMRead:  appRead,
			DRAMWrite: appWrite,
		})
		seg := trace.Segment{
			Name:     "snapshot",
			Duration: snapDur,
			// The application's reads continue while the snapshot
			// drains (Fig 9b: no interference between the PMM writes
			// and DRAM traffic).
			DRAMRead: appRead,
		}
		switch {
		case t.OnNVM:
			seg.NVMWrite = snapBW
			seg.DRAMWrite = appWrite
		case t.OnDRAM:
			seg.DRAMWrite = appWrite + snapBW
		default:
			// Block storage: traffic leaves the memory system; only the
			// source reads show (the copy reads the state from DRAM).
			seg.DRAMWrite = appWrite
		}
		out = append(out, seg)
	}
	return out, nil
}

// LaghosConfig is the paper's Fig 9 schedule: Laghos snapshots every
// five steps; the 58-GiB problem writes ~8 GiB of fields per snapshot
// at ~2 GB/s on the PMM tier.
func LaghosConfig() Config {
	return Config{
		SnapshotBytes: 8 * units.GiB,
		Interval:      5,
		StepTime:      units.Duration(10),
		Steps:         50,
	}
}
