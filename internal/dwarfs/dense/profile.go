// Package dense describes the Dense Linear Algebra dwarf: the memory
// behaviour of a ScaLAPACK PDGEMM run, the paper's representative of
// strided access to dense array structures. The workload descriptor
// models the SUMMA-style multiplication of N x N matrices over a 2D
// block-cyclic process grid as two phases: a latency-sensitive panel
// broadcast that barely parallelizes, and the bandwidth-bound rank-k
// update whose scattered C-block stores are the write contention that
// write-aware placement removes. Its per-structure split (A, B, C and
// workspace) is what placement works from.
package dense

import (
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// The paper's ScaLAPACK experiment multiplies NxN distributed matrices
// (Table II); Fig 12 sweeps N in {6000 .. 48000}. N=48000 puts the
// footprint at ~63% of the socket's DRAM, inside the paper's 50-85%
// window for the Fig 2 / Table III runs.
const paperN = 48000

// WorkloadPaper returns the Table II/III ScaLAPACK configuration.
func WorkloadPaper() *workload.Workload { return WorkloadN(paperN) }

// WorkloadN returns the ScaLAPACK matrix-multiplication workload for
// dimension N.
func WorkloadN(n int) *workload.Workload {
	if n < 512 {
		n = 512
	}
	nf := float64(n)
	// Three matrices plus ~10% workspace (panel buffers).
	matBytes := units.Bytes(nf * nf * 8)
	fp := units.Bytes(float64(3*matBytes) * 1.10)

	// DGEMM does 2N^3 flops; the testbed sustains ~0.9 Tflop/s on 48
	// threads for blocked DGEMM at this scale, giving the baseline time.
	flops := 2 * nf * nf * nf
	baseline := flops / 0.9e12

	// Bandwidth demand per unit time is nearly N-independent for blocked
	// GEMM (compute grows as N^3, traffic as N^3/nb); larger N slightly
	// lowers intensity as panels exceed L2.
	demandScale := 1.0
	if n < 16000 {
		demandScale = 0.85
	}

	// Working set per sweep: the active panels plus a C stripe, a few
	// percent of the footprint but never more than DRAM.
	ws := units.Bytes(float64(fp) * 0.8)

	return &workload.Workload{
		Name:  "ScaLAPACK",
		Dwarf: "Dense Linear Algebra",
		Input: "distributed matrix multiplication, N x N",

		Footprint:    fp,
		BaselineTime: units.Duration(baseline),
		BaseThreads:  48,
		FoM:          workload.FoM{Name: "Run Time", Unit: "s", Higher: false},
		Phases: []memsys.Phase{
			{
				// Panel factorization / broadcast: mostly serial, latency
				// sensitive, scattered small writes (Fig 8 stage 1).
				Name:         "panel",
				Share:        0.17,
				ReadBW:       units.Bandwidth(8e9 * demandScale),
				WriteBW:      units.Bandwidth(6e9 * demandScale),
				ReadMix:      memsys.Pure(memdev.Strided),
				WritePattern: memdev.Gather,
				WorkingSet:   ws / 10,
				LatencyBound: 0.35,
				AliasFactor:  1.8, // power-of-two block strides alias in the DRAM cache
			},
			{
				// Rank-k update (the GEMM bulk): blocked panel reads with
				// gathers across the 2D block-cyclic layout; C-block
				// stores scatter — the write contention that Section V-B's
				// placement removes (Fig 8 stage 2, Fig 12).
				Name:    "update",
				Share:   0.83,
				ReadBW:  units.Bandwidth(36e9 * demandScale),
				WriteBW: units.Bandwidth(5e9 * demandScale),
				ReadMix: memsys.Mix(
					memsys.MixComponent{Pattern: memdev.Strided, Weight: 0.55},
					memsys.MixComponent{Pattern: memdev.Gather, Weight: 0.45},
				),
				WritePattern: memdev.Gather,
				WorkingSet:   ws,
				LatencyBound: 0.20,
				AliasFactor:  1.8,
			},
		},
		Scaling: workload.Scaling{ParallelFrac: 0.99, HTEfficiency: 0.25},
		PhaseScalings: map[string]workload.Scaling{
			// Panel factorization barely parallelizes: its absolute time
			// is nearly constant, so its share grows as the update stage
			// speeds up with concurrency (Fig 8: 10% -> 30%).
			"panel": {ParallelFrac: 0.60, HTEfficiency: 0.05},
		},
		TraceIterations: 8, // k-panel iterations interleave the stages
		Structures: []workload.Structure{
			{Name: "A", Size: matBytes, ReadFrac: 0.42, WriteFrac: 0.02},
			{Name: "B", Size: matBytes, ReadFrac: 0.42, WriteFrac: 0.02},
			{Name: "C", Size: matBytes, ReadFrac: 0.12, WriteFrac: 0.80},
			{Name: "workspace", Size: fp - 3*matBytes, ReadFrac: 0.04, WriteFrac: 0.16},
		},
		Work: flops * 0.7, // ~0.7 retired instructions per flop (FMA)
		Seed: 0x5eed1,
	}
}
