// Package memsys is the heart of the reproduction: it models the three
// main-memory configurations the paper evaluates — DRAM-only, cached-NVM
// (Memory mode) and uncached-NVM (AppDirect) — plus the write-aware
// per-structure placement of Section V-B, and solves each application
// phase for its achieved performance and per-device traffic.
//
// The solver is a bottleneck (roofline-style) epoch model. A phase
// declares the read/write bandwidth it would sustain on unconstrained
// DRAM, its access-pattern mix, working set and latency sensitivity; the
// solver computes the phase's time-dilation multiplier on a given memory
// configuration as the maximum utilization across the resources involved
// (DRAM read/write, NVM read/write, the Memory-mode writeback path), with
// the paper's two NVM-specific couplings:
//
//   - write throttling: reads and writes of a phase share one multiplier,
//     so a saturated NVM write path drags read throughput down with it
//     (the SuperLU phase-1 collapse of Section IV-C);
//
//   - mixed read/write interference: concurrent read and write streams on
//     the Optane controller degrade each other, modelled by adding half
//     of the smaller utilization to the larger one.
package memsys

import (
	"fmt"

	"repro/internal/memdev"
	"repro/internal/units"
)

// MixComponent weights one access pattern within a phase's stream.
type MixComponent struct {
	Pattern memdev.Pattern
	Weight  float64
}

// PatternMix describes a phase's read stream as a weighted combination of
// basic patterns (e.g. a CSR SpMV is part unit-stride over values, part
// gather over the vector).
type PatternMix []MixComponent

// Mix builds a PatternMix from alternating pattern/weight pairs and
// normalizes the weights to sum to one.
func Mix(parts ...MixComponent) PatternMix {
	var total float64
	for _, c := range parts {
		total += c.Weight
	}
	if total <= 0 {
		return PatternMix{{Pattern: memdev.Sequential, Weight: 1}}
	}
	out := make(PatternMix, len(parts))
	for i, c := range parts {
		out[i] = MixComponent{Pattern: c.Pattern, Weight: c.Weight / total}
	}
	return out
}

// Pure is the single-pattern mix.
func Pure(p memdev.Pattern) PatternMix {
	return PatternMix{{Pattern: p, Weight: 1}}
}

// Validate checks the mix is non-empty with valid patterns and positive
// weights summing to ~1.
func (m PatternMix) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("memsys: empty pattern mix")
	}
	var total float64
	for _, c := range m {
		if !c.Pattern.Valid() {
			return fmt.Errorf("memsys: invalid pattern %v in mix", c.Pattern)
		}
		if c.Weight < 0 {
			return fmt.Errorf("memsys: negative weight %v in mix", c.Weight)
		}
		total += c.Weight
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("memsys: mix weights sum to %v, want 1", total)
	}
	return nil
}

// ReadCap returns the harmonic-blend read capability of dev for the mix:
// time-per-byte is the weighted sum of each component's time-per-byte.
func (m PatternMix) ReadCap(dev *memdev.Device, threads int) units.Bandwidth {
	var tpb float64 // seconds per byte
	for _, c := range m {
		cap := float64(dev.ReadCapability(c.Pattern, threads))
		if cap <= 0 {
			return 0
		}
		tpb += c.Weight / cap
	}
	if tpb <= 0 {
		return 0
	}
	return units.Bandwidth(1 / tpb)
}

// Latency returns the weighted mean exposed read latency of dev for the
// mix.
func (m PatternMix) Latency(dev *memdev.Device) units.Duration {
	var l float64
	for _, c := range m {
		l += c.Weight * float64(dev.ReadLatency(c.Pattern))
	}
	return units.Duration(l)
}

// ConflictSensitivity returns the weighted DRAM-cache conflict
// sensitivity of the mix.
func (m PatternMix) ConflictSensitivity() float64 {
	var s float64
	for _, c := range m {
		s += c.Weight * c.Pattern.ConflictSensitivity()
	}
	return s
}

// SpatialLocality returns the weighted 256-byte-block locality of the mix.
func (m PatternMix) SpatialLocality() float64 {
	var s float64
	for _, c := range m {
		s += c.Weight * c.Pattern.SpatialLocality()
	}
	return s
}
