// Package sparse describes the Sparse Linear Algebra dwarf: the memory
// behaviour of SuperLU's PDGSSVX driver (Li, ACM TOMS 2005), a sparse LU
// factorization with partial pivoting and fill-in, on the paper's
// University of Florida inputs. The workload descriptor models the
// write-throttled panel factorization, whose scattered fill-in stores
// come to dominate execution on uncached NVM, and the read-heavy update
// stage, over an active working set that stays small however large the
// factored matrix grows.
package sparse

import (
	"fmt"

	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// Dataset describes one of the paper's University-of-Florida collection
// inputs (Fig 3a sweeps the factorization across all five; the largest
// needs 490 GB — 5.1x the socket's DRAM).
type Dataset struct {
	Name         string
	FootprintGiB float64
}

// Datasets returns the paper's five UF inputs with their factored
// memory footprints expressed against the 96-GiB socket DRAM
// (ratios 0.2, 0.3, 0.7, 1.3, 5.1 from Fig 3a).
func Datasets() []Dataset {
	return []Dataset{
		{Name: "kim2", FootprintGiB: 0.2 * 96},
		{Name: "offshore", FootprintGiB: 0.3 * 96},
		{Name: "Ge87H76", FootprintGiB: 0.7 * 96},
		{Name: "nlpkkt80", FootprintGiB: 1.3 * 96},
		{Name: "nlpkkt120", FootprintGiB: 5.1 * 96},
	}
}

// WorkloadPaper returns the Table II/III SuperLU configuration
// (Ge87H76: 70% of DRAM, inside the Fig 2 window).
func WorkloadPaper() *workload.Workload { return WorkloadDataset(Datasets()[2]) }

// WorkloadDataset returns the SuperLU PDGSSVX workload on the given
// input.
func WorkloadDataset(d Dataset) *workload.Workload {
	if d.FootprintGiB < 0.5 {
		d.FootprintGiB = 0.5
	}
	fp := units.GB(d.FootprintGiB)
	// Factor time scales superlinearly with the factored size.
	baseline := 400.0 * d.FootprintGiB / 67

	// The active working set of the left-looking factorization is the
	// current panel set, a small slice of the factored matrix — this is
	// why SuperLU sustains its FoM at 5.1x DRAM capacity on cached-NVM
	// (Fig 3a).
	ws := units.GB(4 + 0.02*d.FootprintGiB)
	if ws > fp {
		ws = fp
	}

	return &workload.Workload{
		Name:  "SuperLU",
		Dwarf: "Sparse Linear Algebra",
		Input: fmt.Sprintf("PDGSSVX on %s (%s)", d.Name, fp),

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "Factor Mflops", Unit: "Mflop/s", Higher: true, BaseValue: 25000},
		Phases: []memsys.Phase{
			{
				// Panel factorization: dense-panel updates with heavy
				// scattered stores of fill-in — the write-throttled
				// phase that grows from ~25% of execution on DRAM to
				// ~70% on uncached NVM (Fig 5c/5d).
				Name:         "factor-panels",
				Share:        0.28,
				ReadBW:       units.GBps(54),
				WriteBW:      units.GBps(20),
				ReadMix:      memsys.Pure(memdev.Strided),
				WritePattern: memdev.Transpose,
				WorkingSet:   ws,
				LatencyBound: 0.05,
			},
			{
				// Outer GEMM-rich stage + triangular solves: high
				// read/write ratio, latency-tolerant; "no performance
				// loss" in the paper beyond the DRAM/NVM gap.
				Name:         "factor-update",
				Share:        0.72,
				ReadBW:       units.GBps(8),
				WriteBW:      units.MBps(800),
				ReadMix:      memsys.Pure(memdev.Gather),
				WritePattern: memdev.Gather,
				WorkingSet:   ws,
				LatencyBound: 0.18,
			},
		},
		Scaling:         workload.Scaling{ParallelFrac: 0.97, HTEfficiency: 0.10},
		TraceIterations: 1, // two sequential stages (Fig 5c)
		Structures: []workload.Structure{
			{Name: "L-factor", Size: fp * 45 / 100, ReadFrac: 0.35, WriteFrac: 0.45},
			{Name: "U-factor", Size: fp * 35 / 100, ReadFrac: 0.30, WriteFrac: 0.40},
			{Name: "A-matrix", Size: fp * 15 / 100, ReadFrac: 0.30, WriteFrac: 0.05},
			{Name: "work", Size: fp * 5 / 100, ReadFrac: 0.05, WriteFrac: 0.10},
		},
		Work: baseline * 2.4e9 * 20,
		Seed: 0x5eed6,
	}
}
