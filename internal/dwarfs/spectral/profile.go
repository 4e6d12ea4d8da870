// Package spectral describes the Spectral Methods dwarf: the memory
// behaviour of NPB-FT, a discrete 3D fast Fourier transform, the paper's
// representative of data-permutation-heavy computation. The workload
// descriptor models the contiguous butterfly passes and the pencil
// transposes between dimension passes. The transposes rewrite every
// element at a hostile stride once per pass, which makes FT the paper's
// most write-throttled workload.
package spectral

import (
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// The paper runs NPB-FT class D: a 2048 x 1024 x 1024 grid, two
// complex128 arrays ≈ 69 GiB (72% of socket DRAM), ~25 iterations.
const (
	classDPoints  = 2048.0 * 1024 * 1024
	paperFoMMops  = 16000 // Mop/s on DRAM (Fig 2 scale)
	fftIterations = 25
)

// WorkloadClassD returns the paper's FT configuration.
func WorkloadClassD() *workload.Workload { return WorkloadPoints(classDPoints) }

// WorkloadPoints returns an FT workload for a grid with the given total
// point count.
func WorkloadPoints(points float64) *workload.Workload {
	if points < 1<<20 {
		points = 1 << 20
	}
	// Two complex grids (state + checksum/work array).
	fp := units.Bytes(points * 16 * 2)
	arrayBytes := units.Bytes(points * 16)

	// 5 N log2 N flops per 1D FFT x 3 dimensions per iteration; Mop/s
	// FoM counts grid points per second-ish. Baseline from the FoM.
	logN := 31.0
	opsPerIter := 5 * points * logN / 10 // NPB Mop accounting approximation
	totalMops := opsPerIter * fftIterations / 1e6
	baseline := totalMops / paperFoMMops

	scale := points / classDPoints

	return &workload.Workload{
		Name:  "FFT",
		Dwarf: "Spectral Methods",
		Input: "NPB-FT discrete 3D FFT, class D",

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "Mop/s", Unit: "Mop/s", Higher: true, BaseValue: paperFoMMops},
		Phases: []memsys.Phase{
			{
				// Butterfly passes: contiguous pencil sweeps, streaming
				// reads and writes of the whole array.
				Name:         "butterfly",
				Share:        0.25,
				ReadBW:       units.GBps(45 * ramp(scale)),
				WriteBW:      units.GBps(34 * ramp(scale)),
				ReadMix:      memsys.Pure(memdev.Stencil),
				WritePattern: memdev.Sequential,
				WorkingSet:   arrayBytes,
				LatencyBound: 0.02,
			},
			{
				// Pencil transposes between dimension passes: every
				// element rewritten at a large power-of-two stride —
				// the worst case for WPQ combining (Table III: 39%
				// write ratio, 14.9x slowdown).
				Name:         "transpose",
				Share:        0.75,
				ReadBW:       units.GBps(48 * ramp(scale)),
				WriteBW:      units.GBps(19 * ramp(scale)),
				ReadMix:      memsys.Pure(memdev.Transpose),
				WritePattern: memdev.Transpose,
				WorkingSet:   arrayBytes,
				LatencyBound: 0.02,
			},
		},
		// FT loses performance beyond the physical cores even on DRAM
		// (Fig 6: ratio 0.61), and its write traffic grows with HT
		// oversubscription, which is what collapses it to 0.37 on
		// uncached NVM. The read side re-reads more as per-thread tiles
		// shrink in the shared L3 (Fig 7 divergence).
		Scaling:                 workload.Scaling{ParallelFrac: 0.99, HTEfficiency: -0.45},
		HTWriteAmplification:    1.0,
		ThreadReadAmplification: 0.9,
		TraceIterations:         fftIterations,
		Structures: []workload.Structure{
			{Name: "state", Size: arrayBytes, ReadFrac: 0.55, WriteFrac: 0.50},
			{Name: "scratch", Size: arrayBytes, ReadFrac: 0.45, WriteFrac: 0.50},
		},
		Work: opsPerIter * fftIterations * 1.2,
		Seed: 0x5eed2,
	}
}

// ramp damps bandwidth demand slightly for small grids (they fit deeper
// in the on-chip caches).
func ramp(scale float64) float64 {
	if scale >= 1 {
		return 1
	}
	if scale < 0.01 {
		return 0.7
	}
	return 0.7 + 0.3*scale
}
