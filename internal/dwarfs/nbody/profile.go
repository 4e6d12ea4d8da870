// Package nbody describes the N-Body Methods dwarf: the memory
// behaviour of HACC (Habib et al., SC'13), run as the paper's CORAL
// benchmark. The workload descriptor models the short-range force
// kernel (cell-linked softened gravity, the short-range part of HACC's
// P3M) and the leapfrog drift-kick update. Both move so little data
// for their arithmetic that HACC is the paper's least memory-sensitive
// application.
package nbody

import (
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// The paper runs the CORAL HACC benchmark: a 252 Mpc simulation box on
// 384^3 grids (~450M particles with the surrounding buffers, ~55 GiB).
const (
	paperParticles = 450e6
	bytesPerPart   = 130 // position, velocity, mass, id, grid buffers
	paperRunSecs   = 3800
)

// WorkloadPaper returns the Table II/III HACC configuration.
func WorkloadPaper() *workload.Workload { return WorkloadParticles(paperParticles) }

// WorkloadParticles returns a HACC workload for the given particle count.
func WorkloadParticles(n float64) *workload.Workload {
	if n < 1e5 {
		n = 1e5
	}
	fp := units.Bytes(n * bytesPerPart)
	baseline := paperRunSecs * n / paperParticles

	return &workload.Workload{
		Name:  "HACC",
		Dwarf: "N-body",
		Input: "252 box, 384 grids (CORAL)",

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "Run Time", Unit: "s", Higher: false},
		// HACC is compute-bound: the short-range force kernel has
		// enormous arithmetic intensity, so memory traffic is tiny
		// (Table III: 40 MB/s total, 36% writes, 1.01x slowdown).
		Phases: []memsys.Phase{
			{
				Name:         "short-range-force",
				Share:        0.85,
				ReadBW:       units.MBps(24),
				WriteBW:      units.MBps(12),
				ReadMix:      memsys.Pure(memdev.Gather),
				WritePattern: memdev.Gather,
				WorkingSet:   fp / 8, // active slab
				LatencyBound: 0.004,
			},
			{
				Name:         "drift-kick",
				Share:        0.15,
				ReadBW:       units.MBps(34),
				WriteBW:      units.MBps(28),
				ReadMix:      memsys.Pure(memdev.Sequential),
				WritePattern: memdev.Sequential,
				WorkingSet:   fp,
				LatencyBound: 0.002,
			},
		},
		// Near-perfect scaling; hyperthreads help the force kernel
		// (Fig 6: >30% gain).
		Scaling:         workload.Scaling{ParallelFrac: 0.997, HTEfficiency: 0.40},
		TraceIterations: 20,
		Structures: []workload.Structure{
			{Name: "particles", Size: fp * 3 / 4, ReadFrac: 0.7, WriteFrac: 0.8},
			{Name: "grid", Size: fp / 4, ReadFrac: 0.3, WriteFrac: 0.2},
		},
		Work: n * 600 * 20, // ~600 instructions per particle per step
		Seed: 0x5eed4,
	}
}
