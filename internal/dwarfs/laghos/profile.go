// Package laghos describes the memory behaviour of Laghos, the
// Lagrangian high-order finite-element hydrodynamics mini-app from the
// BLAST project (Dobrev/Kolev/Rieben, SIAM J. Sci. Comput. 2012),
// running the paper's Sedov blast wave Q3-Q2 3D input. The workload
// descriptor models each step's two phases, corner-force assembly over
// quadrature points and the mass-matrix solve, as moderate,
// latency-exposed traffic whose writes stay below the NVM
// write-throttling threshold. That is why Laghos lands in the paper's
// insensitive tier.
package laghos

import (
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// The paper runs the Sedov blast Q3-Q2 3D problem; the Fig 2 input
// occupies roughly 60% of the socket's DRAM (high-order quadrature data
// dominates), and the major kernels take ~2000 s on DRAM (Fig 2 scale).
const (
	paperFootprintGiB = 58
	paperKernelSecs   = 2000
)

// WorkloadPaper returns the Table II/III Laghos configuration.
func WorkloadPaper() *workload.Workload { return WorkloadSized(paperFootprintGiB) }

// WorkloadSized returns a Laghos workload at the given footprint in GiB.
func WorkloadSized(gib float64) *workload.Workload {
	if gib < 0.5 {
		gib = 0.5
	}
	fp := units.GB(gib)
	baseline := paperKernelSecs * gib / paperFootprintGiB

	return &workload.Workload{
		Name:  "Laghos",
		Dwarf: "Structured Grid (high-order FEM)",
		Input: "Sedov blast wave Q3-Q2 3D",

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "Major kernels Run Time", Unit: "s", Higher: false},
		// Laghos is the second insensitive-tier application: moderate
		// bandwidth (4.1 GB/s total), 25% writes, 1.27x slowdown from
		// exposed NVM latency in the quadrature-point gathers. Both
		// phases stay below the write-throttling threshold (Fig 5:
		// phase 1 writes average 1.3 GB/s, peak < 2 GB/s), so the phase
		// composition is unchanged on uncached NVM.
		Phases: []memsys.Phase{
			{
				// Corner-force assembly over quadrature points.
				Name:    "force-assembly",
				Share:   0.20,
				ReadBW:  units.GBps(3.9),
				WriteBW: units.GBps(1.3),
				ReadMix: memsys.Mix(
					memsys.MixComponent{Pattern: memdev.Stencil, Weight: 0.5},
					memsys.MixComponent{Pattern: memdev.Sequential, Weight: 0.5},
				),
				WritePattern: memdev.Sequential,
				WorkingSet:   fp / 4,
				LatencyBound: 0.155,
			},
			{
				// CG solve on the (dense-block) mass matrix + EOS
				// updates.
				Name:    "mass-solve",
				Share:   0.80,
				ReadBW:  units.GBps(3.95),
				WriteBW: units.GBps(1.28),
				ReadMix: memsys.Mix(
					memsys.MixComponent{Pattern: memdev.Stencil, Weight: 0.5},
					memsys.MixComponent{Pattern: memdev.Sequential, Weight: 0.5},
				),
				WritePattern: memdev.Sequential,
				WorkingSet:   fp,
				LatencyBound: 0.155,
			},
		},
		Scaling:         workload.Scaling{ParallelFrac: 0.98, HTEfficiency: 0.15},
		TraceIterations: 1, // Fig 5 shows the two phases back to back
		Structures: []workload.Structure{
			{Name: "quadrature-data", Size: fp / 2, ReadFrac: 0.55, WriteFrac: 0.25},
			{Name: "fields", Size: fp * 3 / 10, ReadFrac: 0.30, WriteFrac: 0.55},
			{Name: "mesh", Size: fp / 5, ReadFrac: 0.15, WriteFrac: 0.20},
		},
		Work: 2000 * 2.4e9 * 30 * (gib / paperFootprintGiB), // ~30 IPC-seconds worth
		Seed: 0x5eed5,
	}
}
