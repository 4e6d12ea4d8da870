// Package montecarlo describes the Monte Carlo dwarf: the memory
// behaviour of XSBench's continuous-energy neutron cross-section lookups
// over a unionized energy grid (Tramm et al., PHYSOR 2014), the paper's
// representative of repeated random data access. The workload
// descriptor models each lookup's binary search and per-nuclide gathers
// as uniformly random reads over the whole footprint with negligible
// writes, sized to the paper's XL input or to any footprint for the
// Fig 11 data-size sweep.
package montecarlo

import (
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// Paper input (Table II): the unionized grid of the XL problem with 34
// million lookups.
const (
	paperLookups = 34e6
	// The XL unionized grid sized to the paper's Fig 2 constraint: input
	// problems occupy 50-85% of the local socket's 96 GiB DRAM.
	paperFootprintGiB = 70
	// DRAM-baseline figure of merit from Fig 2 (~8.5M lookups/s) and the
	// implied run time.
	paperLookupsPerSec = 8.5e6
)

// WorkloadXL returns the paper's XSBench configuration.
func WorkloadXL() *workload.Workload { return WorkloadSized(paperFootprintGiB) }

// WorkloadSized returns an XSBench workload with the given memory
// footprint in GiB (the Fig 11 sweep uses 67, 266 and 545 GB).
func WorkloadSized(footprintGiB float64) *workload.Workload {
	if footprintGiB < 1 {
		footprintGiB = 1
	}
	// Lookups scale with the grid so run time stays in the same range.
	lookups := paperLookups * footprintGiB / paperFootprintGiB
	baseline := lookups / paperLookupsPerSec
	fp := units.GB(footprintGiB)
	return &workload.Workload{
		Name:  "XSBench",
		Dwarf: "Monte Carlo",
		Input: "unionized grid, XL problem, 34M lookups",

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "Lookups/s", Unit: "lookups/s", Higher: true, BaseValue: paperLookupsPerSec},
		// Each lookup binary-searches the unionized grid then gathers
		// one row per nuclide: uniformly random reads over the whole
		// footprint, with negligible writes (Table III: 16,130 MB/s read
		// vs 4 MB/s write, write ratio ~0%).
		Phases: []memsys.Phase{{
			Name:  "xs-lookup",
			Share: 1.0,
			// 67 GB/s demand on DRAM: achieved 16.1 GB/s on uncached NVM
			// at 4.16x slowdown (Table III).
			ReadBW:       units.GBps(67),
			WriteBW:      units.MBps(17),
			ReadMix:      memsys.Pure(memdev.Random),
			WritePattern: memdev.Sequential,
			WorkingSet:   fp,
			LatencyBound: 0, // MLP across independent lookups hides latency
		}},
		// Embarrassingly parallel; hyperthreads still help (Fig 6:
		// >30% gain from increased concurrency).
		Scaling:         workload.Scaling{ParallelFrac: 0.997, HTEfficiency: 0.35},
		TraceIterations: 1,
		Structures: []workload.Structure{
			{Name: "union-index", Size: fp * 7 / 10, ReadFrac: 0.55, WriteFrac: 0.05},
			{Name: "nuclide-grids", Size: fp * 28 / 100, ReadFrac: 0.43, WriteFrac: 0.05},
			{Name: "results", Size: fp * 2 / 100, ReadFrac: 0.02, WriteFrac: 0.90},
		},
		Work: lookups * 6000, // ~6k instructions per lookup
		Seed: 0x5eed0,
	}
}
