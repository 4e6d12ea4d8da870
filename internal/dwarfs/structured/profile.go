// Package structured describes the Structured Grids dwarf: the memory
// behaviour of Hypre, which the paper runs with its AMS solver on a 3D
// electromagnetic diffusion problem. The workload descriptor models
// stencil-regular residual and restriction sweeps plus an
// SpMV-dominated smoother whose sparse gathers collapse on NVM: a
// read-dominated solve with few writes.
package structured

import (
	"math"

	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// The paper's Hypre run solves a 3D electromagnetic diffusion problem
// with the AMS preconditioner; the Fig 2 input occupies ~75% of the
// socket's DRAM (the AMG hierarchy plus edge/nodal vectors cost ~200
// bytes per cell), and Fig 3 scales the domain to ~300 GB.
const (
	bytesPerCell   = 200
	paperCells     = 72.0 * 1024 * 1024 * 1024 / bytesPerCell // ~75% of 96 GiB
	paperSolveSecs = 70.0                                     // AMS solve time on DRAM (Fig 2 scale)
)

// WorkloadPaper returns the Table II/III Hypre configuration.
func WorkloadPaper() *workload.Workload { return WorkloadCells(paperCells) }

// WorkloadFootprintGiB returns a Hypre workload scaled to the given
// memory footprint (the Fig 3 sweep).
func WorkloadFootprintGiB(gib float64) *workload.Workload {
	return WorkloadCells(gib * 1024 * 1024 * 1024 / bytesPerCell)
}

// WorkloadCells returns the Hypre workload for the given cell count.
func WorkloadCells(cells float64) *workload.Workload {
	if cells < 1e6 {
		cells = 1e6
	}
	fp := units.Bytes(cells * bytesPerCell)
	// CG/AMG iterations scale mildly with problem size; solve time
	// scales with cells x iterations.
	iters := 40 * math.Pow(cells/paperCells, 0.1)
	baseline := paperSolveSecs * (cells / paperCells) * (iters / 40)

	return &workload.Workload{
		Name:  "Hypre",
		Dwarf: "Structured Grids",
		Input: "3D electromagnetic diffusion problem (AMS)",

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "AMS Solve time", Unit: "s", Higher: false},
		Phases: []memsys.Phase{
			{
				// Residual/restriction sweeps: stencil-regular traffic.
				Name:         "residual",
				Share:        0.25,
				ReadBW:       units.GBps(80),
				WriteBW:      units.GBps(6.5),
				ReadMix:      memsys.Pure(memdev.Stencil),
				WritePattern: memdev.Stencil,
				WorkingSet:   fp / 3,
				LatencyBound: 0.05,
			},
			{
				// SpMV-dominated smoother/solve: unit-stride over matrix
				// values plus gathers through the column indices; the
				// sparse gather component is what collapses on NVM
				// (Table III: 4.67x, read-dominated, 8% writes).
				Name:    "smooth",
				Share:   0.75,
				ReadBW:  units.GBps(83),
				WriteBW: units.GBps(4.2),
				ReadMix: memsys.Mix(
					memsys.MixComponent{Pattern: memdev.Strided, Weight: 0.55},
					memsys.MixComponent{Pattern: memdev.Gather, Weight: 0.45},
				),
				WritePattern: memdev.Gather,
				WorkingSet:   fp,
				LatencyBound: 0.10,
			},
		},
		Scaling:         workload.Scaling{ParallelFrac: 0.985, HTEfficiency: 0.10},
		TraceIterations: 40,
		Structures: []workload.Structure{
			{Name: "amg-matrices", Size: fp * 55 / 100, ReadFrac: 0.60, WriteFrac: 0.10},
			{Name: "edge-vectors", Size: fp * 25 / 100, ReadFrac: 0.25, WriteFrac: 0.45},
			{Name: "nodal-vectors", Size: fp * 20 / 100, ReadFrac: 0.15, WriteFrac: 0.45},
		},
		Work: cells * 40 * 180, // ~180 instructions per cell-iteration
		Seed: 0x5eed3,
	}
}
