// Package unstructured describes the Unstructured Grids dwarf: the
// memory behaviour of BoxLib/AMReX block-structured AMR (Bell et al.)
// running the paper's spherical chemical wave propagation input. The
// workload descriptor models the patch advance, whose flux-register and
// coarse-fine updates scatter writes through multi-level indirection,
// and the indirection-heavy regrid phase.
package unstructured

import (
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// The paper's BoxLib run propagates a spherical chemical wave; the Fig 2
// input occupies ~80% of the socket DRAM, and Fig 3b scales the domain
// to 4.4x DRAM (~300 GB at the largest point).
const (
	paperFootprintGiB = 77
	paperRunSecs      = 1250 // Fig 2 scale (axis to 2400 s)
)

// WorkloadPaper returns the Table II/III BoxLib configuration.
func WorkloadPaper() *workload.Workload { return WorkloadFootprintGiB(paperFootprintGiB) }

// WorkloadFootprintGiB returns the BoxLib workload at the given
// footprint (the Fig 3b sweep uses 0.3-4.4x the 96-GiB DRAM).
func WorkloadFootprintGiB(gib float64) *workload.Workload {
	if gib < 1 {
		gib = 1
	}
	fp := units.GB(gib)
	baseline := paperRunSecs * gib / paperFootprintGiB

	// AMR sweeps most of the hierarchy each step; the reusable working
	// set is the active refinement levels (~80% of the footprint).
	ws := units.Bytes(float64(fp) * 0.8)

	return &workload.Workload{
		Name:  "BoxLib",
		Dwarf: "Unstructured Grids",
		Input: "spherical chemical wave propagation (AMR)",

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "Run Time", Unit: "s", Higher: false},
		Phases: []memsys.Phase{
			{
				// Patch advance: stencil sweeps within boxes, but the
				// flux-register and coarse-fine updates scatter writes
				// through multi-level indirection — write-throttled on
				// NVM (Table III: 8.94x, 21% writes).
				Name:    "advance",
				Share:   0.85,
				ReadBW:  units.GBps(74),
				WriteBW: units.GBps(15),
				ReadMix: memsys.Mix(
					memsys.MixComponent{Pattern: memdev.Stencil, Weight: 0.8},
					memsys.MixComponent{Pattern: memdev.Gather, Weight: 0.2},
				),
				WritePattern: memdev.Gather,
				WorkingSet:   ws,
				LatencyBound: 0.08,
			},
			{
				// Regrid: flag, cluster, prolong — indirection-heavy.
				Name:         "regrid",
				Share:        0.15,
				ReadBW:       units.GBps(20),
				WriteBW:      units.GBps(6),
				ReadMix:      memsys.Pure(memdev.Gather),
				WritePattern: memdev.Gather,
				WorkingSet:   ws / 4,
				LatencyBound: 0.12,
			},
		},
		Scaling:         workload.Scaling{ParallelFrac: 0.98, HTEfficiency: 0.12},
		TraceIterations: 30,
		Structures: []workload.Structure{
			{Name: "level-data", Size: fp * 60 / 100, ReadFrac: 0.6, WriteFrac: 0.5},
			{Name: "flux-registers", Size: fp * 15 / 100, ReadFrac: 0.15, WriteFrac: 0.35},
			{Name: "metadata", Size: fp * 25 / 100, ReadFrac: 0.25, WriteFrac: 0.15},
		},
		Work: baseline * 2.4e9 * 25,
		Seed: 0x5eed7,
	}
}
